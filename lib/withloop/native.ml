open Mg_ndarray
open Cluster

(* The native AOT backend: compile the C that {!Cgen} emits for a
   part with the system compiler, persist the shared object in an
   on-disk cache, dlopen it and bind the exported function pointer
   where a cfun closure would bind otherwise.

   Keying.  A shared object is identified by the MD5 of
   (ABI version, compiler command, generated source).  The source is
   a deterministic function of the part's structure — constant,
   coefficients, deltas, walk steps, output steps — so the digest IS
   the structural plan fingerprint, self-contained enough to dedupe
   identical kernels across plans, engines, runs and processes.  The
   plan cache's own env fingerprint separately carries an [nt] bit
   (Exec.env_of) so cached plans never leak between kernel tiers.

   Cache layout.  $MG_NATIVE_CACHE or the engine's configured
   directory (default [_mg_native/]); one [mg-v<ABI>-<digest>.so] per
   kernel, written under a unique temporary name and renamed into
   place so concurrent processes race benignly.  The directory is
   trimmed to a size cap (MG_NATIVE_CACHE_MB, default 256) by mtime
   LRU — loads touch the file's mtime, and Linux keeps an unlinked
   object mapped, so trimming never invalidates a bound pointer.

   Failure ladder.  cc missing, compilation failing, dlopen or dlsym
   rejecting the object: each increments [native.compile_failures],
   warns once per process, memoises the refusal (no retry storm) and
   returns [None] — the caller falls back to cfun (or the generic
   nest) transparently. *)

module Metrics = Mg_obs.Metrics

let c_compiles = Metrics.counter "native.compiles"
let c_failures = Metrics.counter "native.compile_failures"
let c_disk_hits = Metrics.counter "native.disk_hits"
let c_mem_hits = Metrics.counter "native.mem_hits"
let h_compile = Metrics.histogram "native.compile_ns"

(* ------------------------------------------------------------------ *)
(* FFI                                                                 *)

external dl_open : string -> nativeint = "mg_native_dlopen"
external dl_sym : nativeint -> string -> nativeint = "mg_native_dlsym"
external dl_error : unit -> string = "mg_native_dlerror"

external raw_call : nativeint -> Ndarray.buffer array -> int array -> int -> int -> unit
  = "mg_native_call_bytecode" "mg_native_call"

(* A bound kernel: the function address, plus the digest for
   diagnostics.  Addresses stay valid for the process lifetime —
   handles are never dlclosed. *)
type fn = { addr : nativeint; key : string }

let fn_key f = f.key

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

let cc_command () =
  match Sys.getenv_opt "MG_CC" with Some c when String.trim c <> "" -> String.trim c | _ -> "cc"

let cache_cap_bytes () =
  match Option.bind (Sys.getenv_opt "MG_NATIVE_CACHE_MB") int_of_string_opt with
  | Some mb when mb > 0 -> mb * 1024 * 1024
  | _ -> 256 * 1024 * 1024

let so_prefix = Printf.sprintf "mg-v%d-" Cgen.abi_version

(* ------------------------------------------------------------------ *)
(* Warnings: one line per process, whatever keeps failing.             *)

let warned = Atomic.make false

let warn_once fmt =
  Printf.ksprintf
    (fun msg ->
      if not (Atomic.exchange warned true) then
        Printf.eprintf "mg native: %s; falling back to staged OCaml kernels\n%!" msg)
    fmt

let fail fmt =
  Printf.ksprintf
    (fun reason ->
      Metrics.incr c_failures;
      Mg_obs.Scope.bump "native.compile_failures" 1;
      warn_once "%s" reason;
      None)
    fmt

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Trim the cache directory to the size cap, oldest mtime first.  Best
   effort: a concurrently deleted file is simply skipped. *)
let trim_cache dir =
  try
    let entries =
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f ->
             String.length f > String.length so_prefix
             && String.sub f 0 (String.length so_prefix) = so_prefix
             && Filename.check_suffix f ".so")
      |> List.filter_map (fun f ->
             let path = Filename.concat dir f in
             try
               let st = Unix.stat path in
               Some (path, st.Unix.st_mtime, st.Unix.st_size)
             with Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
    if total > cache_cap_bytes () then begin
      let by_age = List.sort (fun (_, a, _) (_, b, _) -> compare a b) entries in
      let excess = ref (total - cache_cap_bytes ()) in
      List.iter
        (fun (path, _, sz) ->
          if !excess > 0 then begin
            (try Sys.remove path with Sys_error _ -> ());
            excess := !excess - sz
          end)
        by_age
    end
  with Sys_error _ | Unix.Unix_error _ -> ()

let touch path = try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Compile / load                                                      *)

(* In-memory memo: digest -> bound function (or a memoised refusal).
   Guarded by a mutex — plan compilation may run on several domains at
   once, and one cc invocation per kernel is plenty. *)
let memo : (string, fn option) Hashtbl.t = Hashtbl.create 32
let memo_mu = Mutex.create ()

let reset_for_tests () =
  Mutex.lock memo_mu;
  Hashtbl.reset memo;
  Atomic.set warned false;
  Mutex.unlock memo_mu

let bind_so path key =
  let h = dl_open path in
  if h = Nativeint.zero then fail "dlopen rejected %s (%s)" path (dl_error ())
  else begin
    let addr = dl_sym h Cgen.kernel_symbol in
    if addr = Nativeint.zero then
      fail "dlsym found no %s in %s (%s)" Cgen.kernel_symbol path (dl_error ())
    else Some { addr; key }
  end

let uniq = Atomic.make 0

let build_so ~cc ~dir ~path ~src key =
  let tag = Printf.sprintf "%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add uniq 1) in
  let tmp_c = Filename.concat dir (Printf.sprintf "build-%s.c" tag) in
  let tmp_so = Filename.concat dir (Printf.sprintf "build-%s.so" tag) in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ tmp_c; tmp_so ]
  in
  match
    let oc = open_out tmp_c in
    output_string oc src;
    close_out oc;
    (* No fast-math and contraction off: the emitted accumulation
       order must reach the hardware unfused for bitwise identity
       with the interpreted nest. *)
    Printf.sprintf "%s -O2 -fPIC -shared -ffp-contract=off -o %s %s 2>/dev/null" cc
      (Filename.quote tmp_so) (Filename.quote tmp_c)
  with
  | exception Sys_error e ->
      cleanup ();
      fail "cannot write kernel source under %s (%s)" dir e
  | cmd ->
      let t0 = Mg_smp.Clock.now_ns () in
      let rc = try Sys.command cmd with Sys_error _ -> 127 in
      let dt = Int64.to_int (Int64.sub (Mg_smp.Clock.now_ns ()) t0) in
      if rc <> 0 then begin
        cleanup ();
        fail "%s exited with %d compiling kernel %s" cc rc key
      end
      else begin
        (try Sys.rename tmp_so path with Sys_error _ -> ());
        cleanup ();
        Metrics.incr c_compiles;
        Metrics.observe h_compile dt;
        Mg_obs.Scope.bump "native.compiles" 1;
        trim_cache dir;
        bind_so path key
      end

let load_or_build ~cache_dir ~cc ~src key =
  let dir = cache_dir in
  mkdirs dir;
  let path = Filename.concat dir (so_prefix ^ key ^ ".so") in
  if Sys.file_exists path then begin
    match bind_so path key with
    | Some fn ->
        Metrics.incr c_disk_hits;
        touch path;
        Some fn
    | None -> None
  end
  else build_so ~cc ~dir ~path ~src key

let compile ~cache_dir ~const (clusters : ccluster array) ~(osteps : int array) : fn option =
  if not (Cgen.supported ~const clusters) then None
  else begin
    let src = Cgen.c_source ~const clusters ~osteps in
    let cc = cc_command () in
    let key =
      Digest.to_hex
        (Digest.string (Printf.sprintf "abi%d\x00%s\x00%s" Cgen.abi_version cc src))
    in
    Mutex.lock memo_mu;
    let r =
      match Hashtbl.find_opt memo key with
      | Some r ->
          if r <> None then Metrics.incr c_mem_hits;
          r
      | None ->
          let r = load_or_build ~cache_dir ~cc ~src key in
          Hashtbl.replace memo key r;
          r
    in
    Mutex.unlock memo_mu;
    r
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* One call per piece: slots and dims are rebuilt from the LIVE
   cluster array, so plan replay (fresh buffers via [rebind_cpart])
   and piece scheduling (shifted bases via [Cluster.shift_base]) need
   no kernel rebinding at all — the same discipline as cfun. *)
let call (f : fn) (clusters : ccluster array) (out : Ndarray.buffer) ~obase
    ~(counts : int array) =
  let nc = Array.length clusters in
  let slots = Array.make (nc + 1) out in
  for i = 0 to nc - 1 do
    slots.(i + 1) <- clusters.(i).xbuf
  done;
  let dims = Array.make (nc + 4) 0 in
  dims.(0) <- counts.(0);
  dims.(1) <- counts.(1);
  dims.(2) <- counts.(2);
  dims.(3) <- obase;
  for i = 0 to nc - 1 do
    dims.(i + 4) <- clusters.(i).xbase
  done;
  raw_call f.addr slots dims 0 counts.(0)
