type witness = {
  w_victim : int;
  w_aggressor : int;
  w_addr : int;
  w_line : int;
  w_victim_wrote : bool;
  w_read_set : bool;
  w_write_set : bool;
  w_op : string;
  w_aggressor_clock : int;
  w_clock : int;
  w_site : string;
}

let access_label w = if w.w_victim_wrote then "W/W" else "R/W"

let pp_witness ppf w =
  let agg =
    if w.w_aggressor < 0 then "?" else Printf.sprintf "t%d" w.w_aggressor
  in
  Format.fprintf ppf "t%d<-%s %s %#x (%s%s%s)" w.w_victim agg (access_label w)
    w.w_addr w.w_op
    (if w.w_read_set then " rs" else "")
    (if w.w_write_set then " ws" else "")

type hop = {
  hp_tid : int;
  hp_clock : int;
  hp_from : string;
  hp_to : string;
  hp_reason : string;
  hp_witness : witness option;
}

type edge = { mutable e_rw : int; mutable e_ww : int }

type alloc = { mutable a_tid : int; mutable a_clock : int; mutable a_count : int }

type lstat = {
  mutable l_conflicts : int;
  mutable l_rw : int;
  mutable l_ww : int;
  (* allocation provenance of the line's resident object at the time of
     its most recent conflict, copied from the alloc log at record time *)
  mutable l_prov : (int * int * int) option; (* tid, clock, alloc count *)
}

type t = {
  line_shift : int;
  max_hops : int;
  mutable total : int;
  edges : (int * int, edge) Hashtbl.t; (* (victim, aggressor) *)
  lines : (int, lstat) Hashtbl.t;
  line_names : (int, string list ref) Hashtbl.t;
  allocs : (int, alloc) Hashtbl.t;
  sites : (string, int ref) Hashtbl.t;
  victims : (int, int ref) Hashtbl.t;
  mutable rev_hops : hop list;
  mutable nhops : int; (* stored *)
  mutable hop_total : int; (* including those beyond max_hops *)
}

let create ?(line_shift = 3) ?(max_hops = 256) () =
  {
    line_shift;
    max_hops;
    total = 0;
    edges = Hashtbl.create 64;
    lines = Hashtbl.create 256;
    line_names = Hashtbl.create 256;
    allocs = Hashtbl.create 256;
    sites = Hashtbl.create 16;
    victims = Hashtbl.create 16;
    rev_hops = [];
    nhops = 0;
    hop_total = 0;
  }

let label t ~name ~base ~words =
  if words > 0 then begin
    let lo = base lsr t.line_shift and hi = (base + words - 1) lsr t.line_shift in
    for line = lo to hi do
      match Hashtbl.find_opt t.line_names line with
      | Some names -> if not (List.mem name !names) then names := name :: !names
      | None -> Hashtbl.add t.line_names line (ref [ name ])
    done
  end

let note_alloc t ~base ~words ~tid ~clock =
  if words > 0 then begin
    let lo = base lsr t.line_shift and hi = (base + words - 1) lsr t.line_shift in
    for line = lo to hi do
      match Hashtbl.find_opt t.allocs line with
      | Some a ->
        a.a_tid <- tid;
        a.a_clock <- clock;
        a.a_count <- a.a_count + 1
      | None -> Hashtbl.add t.allocs line { a_tid = tid; a_clock = clock; a_count = 1 }
    done
  end

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let record t w =
  t.total <- t.total + 1;
  let ekey = (w.w_victim, w.w_aggressor) in
  let e =
    match Hashtbl.find_opt t.edges ekey with
    | Some e -> e
    | None ->
      let e = { e_rw = 0; e_ww = 0 } in
      Hashtbl.add t.edges ekey e;
      e
  in
  if w.w_victim_wrote then e.e_ww <- e.e_ww + 1 else e.e_rw <- e.e_rw + 1;
  let ls =
    match Hashtbl.find_opt t.lines w.w_line with
    | Some ls -> ls
    | None ->
      let ls = { l_conflicts = 0; l_rw = 0; l_ww = 0; l_prov = None } in
      Hashtbl.add t.lines w.w_line ls;
      ls
  in
  ls.l_conflicts <- ls.l_conflicts + 1;
  if w.w_victim_wrote then ls.l_ww <- ls.l_ww + 1 else ls.l_rw <- ls.l_rw + 1;
  (match Hashtbl.find_opt t.allocs w.w_line with
   | Some a -> ls.l_prov <- Some (a.a_tid, a.a_clock, a.a_count)
   | None -> ());
  bump t.sites w.w_site;
  bump t.victims w.w_victim

let note_hop t ~tid ~clock ~from_path ~to_path ~reason witness =
  t.hop_total <- t.hop_total + 1;
  if t.nhops < t.max_hops then begin
    t.rev_hops <-
      {
        hp_tid = tid;
        hp_clock = clock;
        hp_from = from_path;
        hp_to = to_path;
        hp_reason = reason;
        hp_witness = witness;
      }
      :: t.rev_hops;
    t.nhops <- t.nhops + 1
  end

let count t = t.total
let hop_count t = t.hop_total
let hops t = List.rev t.rev_hops

(* Same convention as the profiler: multiple names on a line mean distinct
   regions shared it over its lifetime. *)
let region_of t line =
  match Hashtbl.find_opt t.line_names line with
  | None | Some { contents = [] } -> "?"
  | Some names -> String.concat " + " (List.sort String.compare !names)

type edge_stat = { es_victim : int; es_aggressor : int; es_rw : int; es_ww : int }

let edges t =
  let all =
    Hashtbl.fold
      (fun (v, a) e acc ->
        { es_victim = v; es_aggressor = a; es_rw = e.e_rw; es_ww = e.e_ww } :: acc)
      t.edges []
  in
  List.sort
    (fun a b ->
      match Int.compare a.es_victim b.es_victim with
      | 0 -> Int.compare a.es_aggressor b.es_aggressor
      | c -> c)
    all

type line_stat = {
  fl_line : int;
  fl_addr : int;
  fl_region : string;
  fl_prov : (int * int * int) option; (* alloc tid, clock, count *)
  fl_conflicts : int;
  fl_rw : int;
  fl_ww : int;
}

let lines ?top t =
  let all =
    Hashtbl.fold
      (fun line ls acc ->
        {
          fl_line = line;
          fl_addr = line lsl t.line_shift;
          fl_region = region_of t line;
          fl_prov = ls.l_prov;
          fl_conflicts = ls.l_conflicts;
          fl_rw = ls.l_rw;
          fl_ww = ls.l_ww;
        }
        :: acc)
      t.lines []
  in
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare b.fl_conflicts a.fl_conflicts with
        | 0 -> Int.compare a.fl_line b.fl_line
        | c -> c)
      all
  in
  match top with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let regions t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun fl ->
      match Hashtbl.find_opt tbl fl.fl_region with
      | Some n -> Hashtbl.replace tbl fl.fl_region (n + fl.fl_conflicts)
      | None ->
        Hashtbl.add tbl fl.fl_region fl.fl_conflicts;
        order := fl.fl_region :: !order)
    (lines t);
  List.sort
    (fun (n1, c1) (n2, c2) ->
      match Int.compare c2 c1 with 0 -> String.compare n1 n2 | c -> c)
    (List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order)

let sorted_counts tbl =
  List.sort
    (fun (k1, c1) (k2, c2) ->
      match Int.compare c2 c1 with 0 -> String.compare k1 k2 | c -> c)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])

let sites t = sorted_counts t.sites

let victims t =
  List.sort
    (fun (t1, _) (t2, _) -> Int.compare t1 t2)
    (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.victims [])

(* Merge [src] into [dst]. Counts are commutative; provenance and alloc
   last-writer fields take [src]'s value when present (the absorber calls
   this in canonical cell order, so "later" is well defined). The stored
   hop timeline keeps [dst]'s bound. *)
let absorb dst src =
  dst.total <- dst.total + src.total;
  Hashtbl.iter
    (fun key e ->
      match Hashtbl.find_opt dst.edges key with
      | Some d ->
        d.e_rw <- d.e_rw + e.e_rw;
        d.e_ww <- d.e_ww + e.e_ww
      | None -> Hashtbl.add dst.edges key { e_rw = e.e_rw; e_ww = e.e_ww })
    src.edges;
  Hashtbl.iter
    (fun line ls ->
      match Hashtbl.find_opt dst.lines line with
      | Some d ->
        d.l_conflicts <- d.l_conflicts + ls.l_conflicts;
        d.l_rw <- d.l_rw + ls.l_rw;
        d.l_ww <- d.l_ww + ls.l_ww;
        (match ls.l_prov with Some _ as p -> d.l_prov <- p | None -> ())
      | None ->
        Hashtbl.add dst.lines line
          { l_conflicts = ls.l_conflicts; l_rw = ls.l_rw; l_ww = ls.l_ww;
            l_prov = ls.l_prov })
    src.lines;
  Hashtbl.iter
    (fun line names ->
      List.iter (fun name -> label dst ~name ~base:(line lsl dst.line_shift) ~words:1)
        (List.rev !names))
    src.line_names;
  Hashtbl.iter
    (fun line a ->
      match Hashtbl.find_opt dst.allocs line with
      | Some d ->
        d.a_tid <- a.a_tid;
        d.a_clock <- a.a_clock;
        d.a_count <- d.a_count + a.a_count
      | None ->
        Hashtbl.add dst.allocs line
          { a_tid = a.a_tid; a_clock = a.a_clock; a_count = a.a_count })
    src.allocs;
  Hashtbl.iter (fun k r -> match Hashtbl.find_opt dst.sites k with
    | Some d -> d := !d + !r
    | None -> Hashtbl.add dst.sites k (ref !r))
    src.sites;
  Hashtbl.iter (fun k r -> match Hashtbl.find_opt dst.victims k with
    | Some d -> d := !d + !r
    | None -> Hashtbl.add dst.victims k (ref !r))
    src.victims;
  List.iter
    (fun hp ->
      note_hop dst ~tid:hp.hp_tid ~clock:hp.hp_clock ~from_path:hp.hp_from
        ~to_path:hp.hp_to ~reason:hp.hp_reason hp.hp_witness)
    (hops src);
  (* stored-hop bookkeeping above already counted them; fix the total to
     include src hops that had themselves overflowed its bound *)
  dst.hop_total <- dst.hop_total + (src.hop_total - src.nhops)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let prov_label = function
  | None -> "-"
  | Some (tid, clock, count) -> Printf.sprintf "t%d@%d (alloc %d)" tid clock count

let print ?(top = 12) ppf t =
  Format.fprintf ppf "witnesses: %d conflict(s), %d escalation hop(s)@." t.total
    t.hop_total;
  if t.total > 0 then begin
    Format.fprintf ppf "@.== conflict graph (victim <- aggressor) ==@.";
    Table.print_cols ppf
      [ "victim"; "aggressor"; "R/W"; "W/W"; "total" ]
      (List.map
         (fun e ->
           [
             Printf.sprintf "t%d" e.es_victim;
             (if e.es_aggressor < 0 then "?" else Printf.sprintf "t%d" e.es_aggressor);
             string_of_int e.es_rw;
             string_of_int e.es_ww;
             string_of_int (e.es_rw + e.es_ww);
           ])
         (edges t));
    Format.fprintf ppf "@.== hot lines (top %d by conflicts) ==@." top;
    Table.print_cols ppf
      [ "line"; "region"; "allocated by"; "conflicts"; "R/W"; "W/W" ]
      (List.map
         (fun fl ->
           [
             Printf.sprintf "%#x" fl.fl_addr;
             fl.fl_region;
             prov_label fl.fl_prov;
             string_of_int fl.fl_conflicts;
             string_of_int fl.fl_rw;
             string_of_int fl.fl_ww;
           ])
         (lines ~top t));
    Format.fprintf ppf "@.== abort attribution by site ==@.";
    Table.print_cols ppf [ "site"; "witnesses" ]
      (List.map (fun (s, n) -> [ s; string_of_int n ]) (sites t))
  end;
  if t.rev_hops <> [] then begin
    Format.fprintf ppf "@.== escalation timeline (first %d of %d hops) ==@." t.nhops
      t.hop_total;
    Table.print_cols ppf
      [ "thread"; "clock"; "hop"; "reason"; "witness" ]
      (List.map
         (fun hp ->
           [
             Printf.sprintf "t%d" hp.hp_tid;
             string_of_int hp.hp_clock;
             hp.hp_from ^ "->" ^ hp.hp_to;
             hp.hp_reason;
             (match hp.hp_witness with
              | None -> "-"
              | Some w -> Format.asprintf "%a" pp_witness w);
           ])
         (hops t))
  end

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let witness_json w =
  Json.Obj
    [
      ("victim", Json.Int w.w_victim);
      ("aggressor", Json.Int w.w_aggressor);
      ("addr", Json.Int w.w_addr);
      ("line", Json.Int w.w_line);
      ("access", Json.Str (access_label w));
      ("read_set", Json.Bool w.w_read_set);
      ("write_set", Json.Bool w.w_write_set);
      ("op", Json.Str w.w_op);
      ("aggressor_clock", Json.Int w.w_aggressor_clock);
      ("clock", Json.Int w.w_clock);
      ("site", Json.Str w.w_site);
    ]

let to_json ?(top = 64) t =
  Json.Obj
    [
      ("schema", Json.Str "forensics/1");
      ("witnesses", Json.Int t.total);
      ( "edges",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("victim", Json.Int e.es_victim);
                   ("aggressor", Json.Int e.es_aggressor);
                   ("rw", Json.Int e.es_rw);
                   ("ww", Json.Int e.es_ww);
                 ])
             (edges t)) );
      ( "lines",
        Json.List
          (List.map
             (fun fl ->
               Json.Obj
                 [
                   ("line", Json.Int fl.fl_line);
                   ("addr", Json.Int fl.fl_addr);
                   ("region", Json.Str fl.fl_region);
                   ( "alloc",
                     match fl.fl_prov with
                     | None -> Json.Null
                     | Some (tid, clock, count) ->
                       Json.Obj
                         [
                           ("tid", Json.Int tid);
                           ("clock", Json.Int clock);
                           ("count", Json.Int count);
                         ] );
                   ("conflicts", Json.Int fl.fl_conflicts);
                   ("rw", Json.Int fl.fl_rw);
                   ("ww", Json.Int fl.fl_ww);
                 ])
             (lines ~top t)) );
      ( "regions",
        Json.List
          (List.map
             (fun (name, n) ->
               Json.Obj [ ("region", Json.Str name); ("conflicts", Json.Int n) ])
             (regions t)) );
      ( "sites",
        Json.List
          (List.map
             (fun (s, n) -> Json.Obj [ ("site", Json.Str s); ("count", Json.Int n) ])
             (sites t)) );
      ( "victims",
        Json.List
          (List.map
             (fun (tid, n) -> Json.Obj [ ("tid", Json.Int tid); ("aborts", Json.Int n) ])
             (victims t)) );
      ( "hops",
        Json.Obj
          [
            ("total", Json.Int t.hop_total);
            ("recorded", Json.Int t.nhops);
            ( "timeline",
              Json.List
                (List.map
                   (fun hp ->
                     Json.Obj
                       [
                         ("tid", Json.Int hp.hp_tid);
                         ("clock", Json.Int hp.hp_clock);
                         ("from", Json.Str hp.hp_from);
                         ("to", Json.Str hp.hp_to);
                         ("reason", Json.Str hp.hp_reason);
                         ( "witness",
                           match hp.hp_witness with
                           | None -> Json.Null
                           | Some w -> witness_json w );
                       ])
                   (hops t)) );
          ] );
    ]
