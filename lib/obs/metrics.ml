let max_tids = 257
let hist_buckets = 62

(* A per-thread counter's breakdown is [max_tids] slots, which is past
   the minor heap's largest block; it is allocated on the first
   attributed increment, so the many per-thread counters a machine
   registers and never bumps cost no major-heap block. [no_per] is the
   shared not-yet-allocated marker. *)
type counter = {
  mutable c_total : int;
  c_threaded : bool;
  mutable c_per : int array;
  c_parent : counter option;
}

let no_per = [||]

type gauge = {
  mutable g_cur : int;
  mutable g_max : int;
  g_parent : gauge option;
}

type hist = {
  h_counts : int array;
  mutable h_n : int;
  h_parent : hist option;
}

type metric = M_counter of counter | M_gauge of gauge | M_hist of hist

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable rev_order : string list;
  parent : t option;
}

let create ?parent () = { tbl = Hashtbl.create 32; rev_order = []; parent }

let register t name m =
  Hashtbl.add t.tbl name m;
  t.rev_order <- name :: t.rev_order

let kind_error name = invalid_arg (Printf.sprintf "Metrics: %S already registered as a different kind" name)

let rec counter ?(per_thread = false) t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_counter c) -> c
  | Some _ -> kind_error name
  | None ->
    let parent = Option.map (fun p -> counter ~per_thread p name) t.parent in
    let c =
      {
        c_total = 0;
        c_threaded = per_thread;
        c_per = no_per;
        c_parent = parent;
      }
    in
    register t name (M_counter c);
    c

let add_per c tid by =
  if c.c_per == no_per then c.c_per <- Array.make max_tids 0;
  c.c_per.(tid) <- c.c_per.(tid) + by

let rec incr ?tid ?(by = 1) c =
  c.c_total <- c.c_total + by;
  (match tid with
   | Some tid when c.c_threaded && tid >= 0 && tid < max_tids -> add_per c tid by
   | _ -> ());
  match c.c_parent with None -> () | Some p -> incr ?tid ~by p

(* Hot-path variants: no optional arguments, so callers pass unboxed ints
   and the call compiles to straight-line field updates. *)
let rec incr_t_full c tid =
  c.c_total <- c.c_total + 1;
  if c.c_threaded && tid >= 0 && tid < max_tids then begin
    let per = c.c_per in
    if per != no_per then per.(tid) <- per.(tid) + 1 else add_per c tid 1
  end;
  match c.c_parent with None -> () | Some p -> incr_t_full p tid

(* Inlined into every access: a parentless counter whose breakdown
   exists (so it is per-thread and [max_tids] long; [no_per] is empty)
   takes two stores. Anything else runs the full chain above. *)
let[@inline] incr_t c tid =
  let per = c.c_per in
  match c.c_parent with
  | None when tid >= 0 && tid < Array.length per ->
    c.c_total <- c.c_total + 1;
    Array.unsafe_set per tid (Array.unsafe_get per tid + 1)
  | _ -> incr_t_full c tid

let rec incr1 c =
  c.c_total <- c.c_total + 1;
  match c.c_parent with None -> () | Some p -> incr1 p

let rec incr_by c by =
  c.c_total <- c.c_total + by;
  match c.c_parent with None -> () | Some p -> incr_by p by

let value c = c.c_total

let per_thread c =
  let per = c.c_per in
  let acc = ref [] in
  for tid = Array.length per - 1 downto 0 do
    if per.(tid) <> 0 then acc := (tid, per.(tid)) :: !acc
  done;
  !acc

let rec gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_gauge g) -> g
  | Some _ -> kind_error name
  | None ->
    let parent = Option.map (fun p -> gauge p name) t.parent in
    let g = { g_cur = 0; g_max = 0; g_parent = parent } in
    register t name (M_gauge g);
    g

(* Parent gauges aggregate by delta, so a shared parent tracks the summed
   level (and its own high-water mark) across all children. *)
let rec g_add g d =
  g.g_cur <- g.g_cur + d;
  if g.g_cur > g.g_max then g.g_max <- g.g_cur;
  match g.g_parent with None -> () | Some p -> g_add p d

let add g d = g_add g d
let set g v = g_add g (v - g.g_cur)
let gauge_value g = g.g_cur
let gauge_max g = g.g_max

let rec hist t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (M_hist h) -> h
  | Some _ -> kind_error name
  | None ->
    let parent = Option.map (fun p -> hist p name) t.parent in
    let h = { h_counts = Array.make hist_buckets 0; h_n = 0; h_parent = parent } in
    register t name (M_hist h);
    h

(* floor (log2 d) in six fixed halving steps; [d <= 1] is bucket 0. A
   positive int has at most 62 bits, so the floor is at most 61; the cap
   keeps the bucket in range whatever [hist_buckets] is. *)
let bucket_of d =
  if d <= 1 then 0
  else begin
    let d = ref d and b = ref 0 in
    if !d lsr 32 <> 0 then begin d := !d lsr 32; b := 32 end;
    if !d lsr 16 <> 0 then begin d := !d lsr 16; b := !b + 16 end;
    if !d lsr 8 <> 0 then begin d := !d lsr 8; b := !b + 8 end;
    if !d lsr 4 <> 0 then begin d := !d lsr 4; b := !b + 4 end;
    if !d lsr 2 <> 0 then begin d := !d lsr 2; b := !b + 2 end;
    if !d lsr 1 <> 0 then b := !b + 1;
    Int.min !b (hist_buckets - 1)
  end

let rec observe h v =
  let b = bucket_of v in
  h.h_counts.(b) <- h.h_counts.(b) + 1;
  h.h_n <- h.h_n + 1;
  match h.h_parent with None -> () | Some p -> observe p v

let percentile h q =
  if h.h_n = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_n))) in
    let cum = ref 0 in
    let res = ref (1 lsl (hist_buckets - 1)) in
    (try
       for i = 0 to hist_buckets - 1 do
         cum := !cum + h.h_counts.(i);
         if !cum >= rank then begin
           res := 1 lsl i;
           raise Exit
         end
       done
     with Exit -> ());
    !res
  end

let p50 h = percentile h 0.50
let p99 h = percentile h 0.99
let p999 h = percentile h 0.999

let buckets h =
  let acc = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if h.h_counts.(i) > 0 then acc := (1 lsl i, h.h_counts.(i)) :: !acc
  done;
  !acc

let hist_count h = h.h_n

let reset_counter c =
  c.c_total <- 0;
  Array.fill c.c_per 0 (Array.length c.c_per) 0

let reset_gauge g =
  g.g_cur <- 0;
  g.g_max <- 0

let reset_hist h =
  Array.fill h.h_counts 0 hist_buckets 0;
  h.h_n <- 0

let reset t =
  Hashtbl.iter
    (fun _ -> function
      | M_counter c -> reset_counter c
      | M_gauge g -> reset_gauge g
      | M_hist h -> reset_hist h)
    t.tbl

(* Bucket-wise histogram merge (bucket lows are powers of two, so
   [bucket_of lo] recovers the index); loops would cost one observe per
   original sample. *)
let rec h_add h b n =
  h.h_counts.(b) <- h.h_counts.(b) + n;
  h.h_n <- h.h_n + n;
  match h.h_parent with None -> () | Some p -> h_add p b n

type value =
  | Counter of { total : int; per_tid : (int * int) list }
  | Gauge of { current : int; high : int }
  | Hist of (int * int) list

type snapshot = (string * value) list

let snapshot t =
  List.rev_map
    (fun name ->
      let v =
        match Hashtbl.find t.tbl name with
        | M_counter c -> Counter { total = c.c_total; per_tid = per_thread c }
        | M_gauge g -> Gauge { current = g.g_cur; high = g.g_max }
        | M_hist h -> Hist (buckets h)
      in
      (name, v))
    t.rev_order

(* Merge a snapshot into [t], as if [t] had observed everything the
   snapshotted registry did, sequenced after [t]'s own history. Counters
   and histograms are commutative; gauge levels add, and the high-water
   mark composes sequentially (previous max + absorbed max bounds the
   level the merged timeline could have reached). Absorbing snapshots in
   a fixed order therefore yields identical registries however the
   source registries' runs were scheduled. *)
let absorb t (snap : snapshot) =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter { total; per_tid } ->
        let c = counter ~per_thread:(per_tid <> []) t name in
        let tagged = List.fold_left (fun a (_, n) -> a + n) 0 per_tid in
        List.iter (fun (tid, n) -> incr ~tid ~by:n c) per_tid;
        if total - tagged <> 0 then incr ~by:(total - tagged) c
      | Gauge { current; high } ->
        let g = gauge t name in
        let base_max = g.g_max in
        g_add g current;
        if base_max + high > g.g_max then g.g_max <- base_max + high
      | Hist bs ->
        let h = hist t name in
        List.iter (fun (lo, n) -> h_add h (bucket_of lo) n) bs)
    snap

let to_json t =
  let entry = function
    | Counter { total; per_tid } ->
      Json.Obj
        (("total", Json.Int total)
         ::
         (match per_tid with
          | [] -> []
          | l ->
            [ ( "per_thread",
                Json.Obj (List.map (fun (tid, n) -> (string_of_int tid, Json.Int n)) l) )
            ]))
    | Gauge { current; high } ->
      Json.Obj [ ("current", Json.Int current); ("high", Json.Int high) ]
    | Hist bs ->
      Json.Obj
        [ ( "buckets",
            Json.List (List.map (fun (lo, n) -> Json.List [ Json.Int lo; Json.Int n ]) bs)
          )
        ]
  in
  Json.Obj
    [
      ("schema", Json.Str "metrics/1");
      ("metrics", Json.Obj (List.map (fun (name, v) -> (name, entry v)) (snapshot t)));
    ]
