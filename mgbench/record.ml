(* Op accounting, sample statistics and the result line. *)

module Json = Mg_bench_util.Bench_util.Json

let now = Mg_smp.Clock.now
let elapsed = Mg_smp.Clock.elapsed

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Record.quantile: no samples";
  Array.sort compare a;
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let vmhwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        else find ()
      in
      find ())

(* Every solve the benchmark runs is an op.  An op fails when it
   raises, is refused, fails NAS verification (class W's at-floor
   status passes), or its rnm2 differs bitwise from its spec's
   reference: the first solve of that spec in the run, unless a
   reference was set explicitly (serve-S sets sequential twins).

   Peak RSS is read once [rss_after] ops have been checked (or at the
   end, if fewer run), not at the end: cold-S creates an engine per op
   and every engine leaves metric series behind for good, and serve-S
   grows with every request served, so a high-water mark read at the
   end of a fixed-duration run would grow with speed. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  reference : (string, int64) Hashtbl.t;
  mutable rss_mb : float option;
}

let rss_after = 100
let ops () = { attempted = 0; failed = 0; reference = Hashtbl.create 8; rss_mb = None }
let set_reference ops key rnm2 = Hashtbl.replace ops.reference key (Int64.bits_of_float rnm2)

let count ops ok =
  ops.attempted <- ops.attempted + 1;
  if not ok then ops.failed <- ops.failed + 1;
  if ops.attempted = rss_after then ops.rss_mb <- Some (vmhwm_mb ())

let fail ops key why =
  Printf.eprintf "mgbench: %s failed: %s\n%!" key why;
  count ops false

let check ops ~key ~rnm2 ~verified =
  let bits = Int64.bits_of_float rnm2 in
  let same =
    match Hashtbl.find_opt ops.reference key with
    | Some b -> Int64.equal b bits
    | None ->
        Hashtbl.add ops.reference key bits;
        true
  in
  if not verified then fail ops key (Printf.sprintf "rnm2 %.17e not verified" rnm2)
  else if not same then
    fail ops key
      (Printf.sprintf "rnm2 %.17e differs from reference %.17e" rnm2
         (Int64.float_of_bits (Hashtbl.find ops.reference key)))
  else count ops true;
  verified && same

let peak_rss_mb ops = match ops.rss_mb with Some mb -> mb | None -> vmhwm_mb ()

(* The last line of standard output: one JSON object on one line.
   [metrics] must hold a value for every metric of [spec], in any
   order; they are printed in spec order. *)
let result_line ops (spec : Spec.metric list) metrics =
  let value (m : Spec.metric) =
    match List.assoc_opt m.Spec.name metrics with
    | Some v when Float.is_finite v ->
        (m.Spec.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String m.Spec.unit_) ])
    | _ -> failwith ("mgbench: no finite value for metric " ^ m.Spec.name)
  in
  let j =
    Json.Obj
      [ ("correct", Json.Bool (ops.failed = 0 && ops.attempted > 0));
        ("attempted", Json.Int ops.attempted);
        ("failed", Json.Int ops.failed);
        ("metrics", Json.Obj (List.map value spec));
      ]
  in
  (* Json.to_string pretty-prints; no string in the result holds a
     newline, so dropping the line breaks and indentation is exact. *)
  String.concat "" (List.map String.trim (String.split_on_char '\n' (Json.to_string j)))
