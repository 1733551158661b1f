(* ------------------------------------------------------------------ *)
(* Self times: duration minus immediate children on the same lane.
   Spans on one lane nest properly (they come from balanced open/close
   pairs on one domain), so a single stack sweep per lane suffices.

   [count_child] decides which descendants are subtracted: a span's
   charge is its full duration when counted, and only its counted
   descendants' time otherwise — so the charge always reaches the
   nearest counted ancestor, even through uncounted spans in between.
   With [count_child = fun _ -> true] this is plain self time.         *)

let sweep ~count_child (evs : Span.event list) =
  let sorted =
    List.sort
      (fun (a : Span.event) (b : Span.event) ->
        let c = compare a.Span.lane b.Span.lane in
        if c <> 0 then c
        else
          let c = Int64.compare a.Span.start_ns b.Span.start_ns in
          if c <> 0 then c else compare a.Span.depth b.Span.depth)
      evs
  in
  let out = ref [] in
  let stack : (Span.event * int64 ref) list ref = ref [] in
  let lane = ref min_int in
  let finalize ((e : Span.event), child) =
    let dur = Span.duration_ns e in
    out := (e, Int64.sub dur !child) :: !out;
    let charge = if count_child e then dur else !child in
    (match !stack with
    | (_, pchild) :: _ -> pchild := Int64.add !pchild charge
    | [] -> ())
  in
  let drain () =
    while !stack <> [] do
      match !stack with
      | top :: rest ->
          stack := rest;
          finalize top
      | [] -> ()
    done
  in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.lane <> !lane then begin
        drain ();
        lane := e.Span.lane
      end;
      (* pop spans that finished before this one starts *)
      let rec pop () =
        match !stack with
        | (top, child) :: rest when Int64.compare top.Span.end_ns e.Span.start_ns <= 0 ->
            stack := rest;
            finalize (top, child);
            pop ()
        | _ -> ()
      in
      pop ();
      stack := (e, ref 0L) :: !stack)
    sorted;
  drain ();
  List.rev !out

let self_times evs = sweep ~count_child:(fun _ -> true) evs

(* ------------------------------------------------------------------ *)
(* Small table rendering (kept local: this library sits below
   bench_util in the dependency order).                                *)

let render_table ppf ~header rows =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) header;
  List.iter
    (fun row ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) row)
    rows;
  let pad right w s =
    let k = w - String.length s in
    if k <= 0 then s else if right then String.make k ' ' ^ s else s ^ String.make k ' '
  in
  let render_row right row =
    let cells = List.mapi (fun i c -> pad (right && i > 0) widths.(i) c) row in
    Format.fprintf ppf "  %s@." (String.concat "   " cells)
  in
  render_row false header;
  Format.fprintf ppf "  %s@."
    (String.concat "   " (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (render_row true) rows

let ms ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* The report                                                          *)

let pp ?wall_seconds ppf (evs : Span.event list) =
  match evs with
  | [] -> Format.fprintf ppf "profile: no spans recorded (is observation enabled?)@."
  | _ ->
      let selfs = self_times evs in
      let t_min =
        List.fold_left (fun acc (e : Span.event) -> min acc e.Span.start_ns)
          (List.hd evs).Span.start_ns evs
      in
      let t_max = List.fold_left (fun acc (e : Span.event) -> max acc e.Span.end_ns) 0L evs in
      let window_ns = Int64.sub t_max t_min in
      let wall_s =
        match wall_seconds with Some s -> s | None -> Int64.to_float window_ns /. 1e9
      in
      (* 1. Pipeline stages. *)
      let stages = Hashtbl.create 16 in
      List.iter
        (fun ((e : Span.event), self) ->
          let calls, self_ns, total_ns =
            try Hashtbl.find stages e.Span.name with Not_found -> (0, 0L, 0L)
          in
          Hashtbl.replace stages e.Span.name
            (calls + 1, Int64.add self_ns self, Int64.add total_ns (Span.duration_ns e)))
        selfs;
      let stage_rows =
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) stages []
        |> List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> Int64.compare b a)
        |> List.map (fun (name, (calls, self_ns, total_ns)) ->
               [ name;
                 string_of_int calls;
                 Printf.sprintf "%.3f" (ms self_ns);
                 Printf.sprintf "%.3f" (ms total_ns);
                 Printf.sprintf "%.1f%%" (100.0 *. ms self_ns /. 1e3 /. wall_s);
               ])
      in
      Format.fprintf ppf "Pipeline stages (self = child spans subtracted):@.";
      render_table ppf ~header:[ "span"; "calls"; "self ms"; "total ms"; "self/wall" ] stage_rows;
      (* 2. Per-level table over spans carrying an "extent" attribute.
         Level cost subtracts only nested level-bearing spans, so plan
         compilation inside a force is charged to that force's level
         and the table partitions the whole force-tree time. *)
      let has_extent (e : Span.event) = List.mem_assoc "extent" e.Span.attrs in
      let level_selfs = sweep ~count_child:has_extent evs in
      let levels = Hashtbl.create 8 in
      List.iter
        (fun ((e : Span.event), self) ->
          match List.assoc_opt "extent" e.Span.attrs with
          | None -> ()
          | Some ext ->
              let extent = match int_of_string_opt ext with Some n -> n | None -> 0 in
              let elements =
                match Option.bind (List.assoc_opt "elements" e.Span.attrs) int_of_string_opt with
                | Some n -> n
                | None -> 0
              in
              let kernel =
                match List.assoc_opt "kernel" e.Span.attrs with
                | Some s -> String.split_on_char ',' s
                | None -> []
              in
              let hit = List.assoc_opt "cache" e.Span.attrs = Some "hit" in
              let forces, elts, self_ns, kernels, hits =
                try Hashtbl.find levels extent with Not_found -> (0, 0, 0L, [], 0)
              in
              let kernels =
                List.fold_left
                  (fun acc k -> if k = "" || List.mem k acc then acc else k :: acc)
                  kernels kernel
              in
              Hashtbl.replace levels extent
                (forces + 1, elts + elements, Int64.add self_ns self, kernels,
                 if hit then hits + 1 else hits))
        level_selfs;
      let level_rows =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) levels []
        |> List.sort (fun (a, _) (b, _) -> compare b a)
      in
      if level_rows <> [] then begin
        let total_ns =
          List.fold_left (fun acc (_, (_, _, s, _, _)) -> Int64.add acc s) 0L level_rows
        in
        let rows =
          List.map
            (fun (extent, (forces, elts, self_ns, kernels, hits)) ->
              [ string_of_int extent;
                string_of_int forces;
                string_of_int elts;
                Printf.sprintf "%.3f" (ms self_ns);
                (if elts = 0 then "-"
                 else Printf.sprintf "%.1f" (Int64.to_float self_ns /. float_of_int elts));
                String.concat "," (List.rev kernels);
                Printf.sprintf "%d/%d" hits forces;
              ])
            level_rows
        in
        Format.fprintf ppf "@.Per-level with-loop cost (V-cycle levels by extent):@.";
        render_table ppf
          ~header:[ "level n"; "forces"; "elements"; "self ms"; "ns/elt"; "kernels"; "cache" ]
          rows;
        Format.fprintf ppf
          "  per-level total %.3f ms = %.1f%% of %s wall %.3f ms@."
          (ms total_ns)
          (100.0 *. ms total_ns /. 1e3 /. wall_s)
          (match wall_seconds with Some _ -> "measured" | None -> "observed")
          (wall_s *. 1e3)
      end;
      (* 3. Per-domain utilisation: union of span intervals per lane
         over the observed window. *)
      let lanes = Hashtbl.create 8 in
      List.iter
        (fun (e : Span.event) ->
          let l = try Hashtbl.find lanes e.Span.lane with Not_found -> [] in
          Hashtbl.replace lanes e.Span.lane ((e.Span.start_ns, e.Span.end_ns) :: l))
        evs;
      let busy intervals =
        let sorted = List.sort compare intervals in
        let rec go acc cur_lo cur_hi = function
          | [] -> Int64.add acc (Int64.sub cur_hi cur_lo)
          | (lo, hi) :: rest ->
              if Int64.compare lo cur_hi <= 0 then go acc cur_lo (max cur_hi hi) rest
              else go (Int64.add acc (Int64.sub cur_hi cur_lo)) lo hi rest
        in
        match sorted with [] -> 0L | (lo, hi) :: rest -> go 0L lo hi rest
      in
      let lane_rows =
        Hashtbl.fold (fun lane ivs acc -> (lane, busy ivs, List.length ivs) :: acc) lanes []
        |> List.sort compare
        |> List.map (fun (lane, busy_ns, n) ->
               [ Printf.sprintf "domain-%d" lane;
                 string_of_int n;
                 Printf.sprintf "%.3f" (ms busy_ns);
                 (if Int64.compare window_ns 0L > 0 then
                    Printf.sprintf "%.1f%%"
                      (100.0 *. Int64.to_float busy_ns /. Int64.to_float window_ns)
                  else "-");
               ])
      in
      Format.fprintf ppf "@.Per-domain utilisation (observed window %.3f ms):@."
        (ms window_ns);
      render_table ppf ~header:[ "lane"; "spans"; "busy ms"; "util" ] lane_rows;
      let metrics = Metrics.dump () in
      (* 4. Per-kernel piece cost (the unlabelled [kernel.ns_elt.*]
         aggregate histograms recorded under [Kernel.set_timing]):
         count, mean, and interpolated p50/p90/p99. *)
      let prefix = "kernel.ns_elt." in
      let plen = String.length prefix in
      let kernel_rows =
        List.filter_map
          (fun (name, v) ->
            match v with
            | Metrics.Histogram h
              when h.Metrics.count > 0
                   && String.length name > plen
                   && String.sub name 0 plen = prefix ->
                Some
                  [ String.sub name plen (String.length name - plen);
                    string_of_int h.Metrics.count;
                    Printf.sprintf "%.1f"
                      (float_of_int h.Metrics.sum /. float_of_int h.Metrics.count);
                    Printf.sprintf "%.1f" (Metrics.quantile h 0.5);
                    Printf.sprintf "%.1f" (Metrics.quantile h 0.9);
                    Printf.sprintf "%.1f" (Metrics.quantile h 0.99);
                  ]
            | _ -> None)
          metrics
      in
      if kernel_rows <> [] then begin
        Format.fprintf ppf "@.Per-kernel piece cost (ns per element, log2 buckets):@.";
        render_table ppf
          ~header:[ "kernel"; "pieces"; "mean ns/elt"; "p50"; "p90"; "p99" ]
          kernel_rows
      end;
      (* 5. Metrics registry, labelled shards included.  Labelled
         entries render as [name{k="v"}] — the name immediately
         followed by the brace — so tools matching the unlabelled
         [^  name ] lines (the profile-smoke awk) never pick up a
         shard by accident. *)
      let all_metrics = Metrics.dump_all () in
      if all_metrics <> [] then begin
        Format.fprintf ppf "@.Metrics:@.";
        List.iter
          (fun (name, labels, v) ->
            let shown =
              match labels with
              | [] -> name
              | ls ->
                  name ^ "{"
                  ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) ls)
                  ^ "}"
            in
            match v with
            | Metrics.Counter n -> Format.fprintf ppf "  %-36s %12d@." shown n
            | Metrics.Gauge g -> Format.fprintf ppf "  %-36s %12.6f@." shown g
            | Metrics.Histogram h ->
                Format.fprintf ppf "  %-36s count=%d sum=%d mean=%.1f p50=%.1f p99=%.1f@."
                  shown h.Metrics.count h.Metrics.sum
                  (if h.Metrics.count = 0 then 0.0
                   else float_of_int h.Metrics.sum /. float_of_int h.Metrics.count)
                  (Metrics.quantile h 0.5) (Metrics.quantile h 0.99))
          all_metrics
      end

let render ?wall_seconds evs = Format.asprintf "%a" (pp ?wall_seconds) evs
