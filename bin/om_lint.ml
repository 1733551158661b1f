(* om_lint: a small in-repo lint for the OpenMetrics exposition text
   Mg_obs.Export.to_openmetrics writes, so `make metrics-smoke` can
   assert structural validity without a Prometheus install:

     - every sample's family has a preceding `# TYPE` line;
     - label blocks parse (names, `="..."` values, escapes);
     - histogram `_bucket` series are cumulative (monotone non-
       decreasing in `le` order), end in `le="+Inf"`, and the +Inf
       count equals the family's `_count`;
     - the file ends with `# EOF`;
     - no label of a family takes more than [max_label_values]
       distinct values: reason codes are closed enums and engine
       labels are bounded by the live engines, so a label minting a
       value per solve or per request shows up here as unbounded
       series growth.

   Exit 0 when clean, 1 with a per-line diagnosis otherwise. *)

let errors = ref 0
let max_label_values = 32

let fail lineno fmt =
  incr errors;
  Printf.ksprintf (fun m -> Printf.eprintf "om_lint:%d: %s\n" lineno m) fmt

let is_name_char i c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | '0' .. '9' -> i > 0
  | _ -> false

let valid_name n =
  String.length n > 0
  && (let ok = ref true in
      String.iteri (fun i c -> if not (is_name_char i c) then ok := false) n;
      !ok)

(* Parse `name{k="v",...} value` into (name, labels, value-string).
   Returns None on malformed input. *)
let parse_sample line =
  let n = String.length line in
  let rec name_end i = if i < n && is_name_char i line.[i] then name_end (i + 1) else i in
  let ne = name_end 0 in
  if ne = 0 then None
  else
    let name = String.sub line 0 ne in
    if ne < n && line.[ne] = '{' then begin
      (* Label block: scan for the closing brace respecting escapes. *)
      let labels = ref [] in
      let buf = Buffer.create 16 in
      let i = ref (ne + 1) in
      let ok = ref true in
      let parse_one () =
        (* label name *)
        Buffer.clear buf;
        while !i < n && line.[!i] <> '=' && line.[!i] <> '}' do
          Buffer.add_char buf line.[!i];
          incr i
        done;
        let k = Buffer.contents buf in
        if !i >= n || line.[!i] <> '=' then ok := false
        else begin
          incr i;
          if !i >= n || line.[!i] <> '"' then ok := false
          else begin
            incr i;
            Buffer.clear buf;
            let closed = ref false in
            while (not !closed) && !i < n do
              (match line.[!i] with
              | '\\' ->
                  if !i + 1 < n then begin
                    Buffer.add_char buf line.[!i + 1];
                    incr i
                  end
                  else ok := false
              | '"' -> closed := true
              | c -> Buffer.add_char buf c);
              incr i
            done;
            if not !closed then ok := false
            else labels := (k, Buffer.contents buf) :: !labels
          end
        end
      in
      parse_one ();
      while !ok && !i < n && line.[!i] = ',' do
        incr i;
        parse_one ()
      done;
      if (not !ok) || !i >= n || line.[!i] <> '}' then None
      else
        let rest = String.sub line (!i + 1) (n - !i - 1) in
        Some (name, List.rev !labels, String.trim rest)
    end
    else
      match String.index_opt line ' ' with
      | Some sp when sp = ne -> Some (name, [], String.trim (String.sub line sp (n - sp)))
      | _ -> None

(* Family of a sample name: strip the OpenMetrics suffixes. *)
let family name =
  let strip suf =
    if Filename.check_suffix name suf then
      Some (String.sub name 0 (String.length name - String.length suf))
    else None
  in
  match (strip "_total", strip "_bucket", strip "_sum", strip "_count") with
  | Some f, _, _, _ | _, Some f, _, _ | _, _, Some f, _ | _, _, _, Some f -> f
  | None, None, None, None -> name

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "/dev/stdin" in
  let ic = open_in path in
  let types : (string, string) Hashtbl.t = Hashtbl.create 32 in
  (* (family, non-le labels) -> last cumulative count, +Inf seen, last le *)
  let buckets : (string, int * bool * float) Hashtbl.t = Hashtbl.create 32 in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let inf_counts : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let last = ref "" in
  let lineno = ref 0 in
  (* (family, label name) -> the distinct values seen *)
  let label_values : (string * string, (string, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 32 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let ln = !lineno in
       last := line;
       if line = "" then ()
       else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
         match String.split_on_char ' ' line with
         | [ _; _; fam; kind ] ->
             if not (valid_name fam) then fail ln "invalid family name %S" fam;
             if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
               fail ln "unknown type %S for family %S" kind fam;
             if Hashtbl.mem types fam then fail ln "duplicate # TYPE for family %S" fam;
             Hashtbl.replace types fam kind
         | _ -> fail ln "malformed # TYPE line: %s" line
       end
       else if String.length line >= 1 && line.[0] = '#' then ()
       else
         match parse_sample line with
         | None -> fail ln "unparseable sample line: %s" line
         | Some (name, labels, value) -> (
             let fam = family name in
             List.iter
               (fun (k, v) ->
                 if k <> "le" then begin
                   let vs =
                     match Hashtbl.find_opt label_values (fam, k) with
                     | Some vs -> vs
                     | None ->
                         let vs = Hashtbl.create 4 in
                         Hashtbl.add label_values (fam, k) vs;
                         vs
                   in
                   Hashtbl.replace vs v ()
                 end)
               labels;
             (match Hashtbl.find_opt types fam with
             | None -> fail ln "sample for family %S precedes its # TYPE line" fam
             | Some kind -> (
                 match kind with
                 | "counter" when not (Filename.check_suffix name "_total") ->
                     fail ln "counter sample %S lacks the _total suffix" name
                 | _ -> ()));
             if float_of_string_opt value = None && value <> "+Inf" then
               fail ln "non-numeric sample value %S" value;
             if Filename.check_suffix name "_bucket" then begin
               let le = try Some (List.assoc "le" labels) with Not_found -> None in
               let rest = List.filter (fun (k, _) -> k <> "le") labels in
               let key = fam ^ "|" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) rest) in
               let cum = int_of_float (float_of_string value) in
               match le with
               | None -> fail ln "_bucket sample without an le label"
               | Some "+Inf" ->
                   (match Hashtbl.find_opt buckets key with
                   | Some (prev, _, _) when cum < prev ->
                       fail ln "histogram %s: +Inf count %d < previous bucket %d" key cum prev
                   | _ -> ());
                   Hashtbl.replace buckets key (cum, true, infinity);
                   Hashtbl.replace inf_counts key cum
               | Some le_s -> (
                   match float_of_string_opt le_s with
                   | None -> fail ln "non-numeric le value %S" le_s
                   | Some le_v -> (
                       match Hashtbl.find_opt buckets key with
                       | Some (prev, _, prev_le) ->
                           if le_v <= prev_le then
                             fail ln "histogram %s: le %g not increasing (prev %g)" key le_v prev_le;
                           if cum < prev then
                             fail ln "histogram %s: bucket count %d < previous %d (not cumulative)" key
                               cum prev;
                           Hashtbl.replace buckets key (cum, false, le_v)
                       | None -> Hashtbl.replace buckets key (cum, false, le_v)))
             end
             else if Filename.check_suffix name "_count" then
               let key =
                 fam ^ "|" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
               in
               Hashtbl.replace counts key (int_of_float (float_of_string value)))
     done
   with End_of_file -> close_in ic);
  (* Every histogram series must have closed with +Inf and agree with _count. *)
  Hashtbl.iter
    (fun key (_, saw_inf, _) ->
      if not saw_inf then fail 0 "histogram %s: no le=\"+Inf\" bucket" key)
    buckets;
  Hashtbl.iter
    (fun key inf ->
      match Hashtbl.find_opt counts key with
      | Some c when c <> inf -> fail 0 "histogram %s: +Inf bucket %d <> _count %d" key inf c
      | None -> fail 0 "histogram %s: _bucket series without a _count sample" key
      | Some _ -> ())
    inf_counts;
  Hashtbl.iter
    (fun (fam, k) vs ->
      if Hashtbl.length vs > max_label_values then
        fail 0 "family %s: label %s takes %d values (more than %d)" fam k (Hashtbl.length vs)
          max_label_values)
    label_values;
  if !last <> "# EOF" then fail !lineno "file does not end with # EOF";
  if !errors > 0 then begin
    Printf.eprintf "om_lint: %d error(s) in %s\n" !errors path;
    exit 1
  end
  else print_endline "om_lint: OK"
