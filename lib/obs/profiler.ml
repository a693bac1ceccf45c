type stat = {
  mutable s_transfers : int;
  mutable s_cycles : int;
  mutable s_wait : int;
  mutable s_max_sharers : int;
}

type t = {
  line_shift : int;
  stats : (int, stat) Hashtbl.t;
  (* Per-line region names, deduplicated at label time: re-labelling a
     recycled block is O(lines covered) and idempotent, so allocation
     hot loops can label unconditionally. *)
  line_names : (int, string list ref) Hashtbl.t;
}

let create ?(line_shift = 3) () =
  { line_shift; stats = Hashtbl.create 256; line_names = Hashtbl.create 256 }

let label t ~name ~base ~words =
  if words > 0 then begin
    let lo = base lsr t.line_shift and hi = (base + words - 1) lsr t.line_shift in
    for line = lo to hi do
      match Hashtbl.find_opt t.line_names line with
      | Some names -> if not (List.mem name !names) then names := name :: !names
      | None -> Hashtbl.add t.line_names line (ref [ name ])
    done
  end

let record_transfer t ~line ~wait ~cost ~sharers =
  let s =
    match Hashtbl.find_opt t.stats line with
    | Some s -> s
    | None ->
      let s = { s_transfers = 0; s_cycles = 0; s_wait = 0; s_max_sharers = 0 } in
      Hashtbl.add t.stats line s;
      s
  in
  s.s_transfers <- s.s_transfers + 1;
  s.s_cycles <- s.s_cycles + cost;
  s.s_wait <- s.s_wait + wait;
  if sharers > s.s_max_sharers then s.s_max_sharers <- sharers

type line_stat = {
  ls_line : int;
  ls_region : string;
  ls_transfers : int;
  ls_cycles : int;
  ls_wait : int;
  ls_max_sharers : int;
}

(* More than one name on a line means distinct regions shared it over its
   lifetime — render them joined as a false-sharing indicator. *)
let region_of t line =
  match Hashtbl.find_opt t.line_names line with
  | None | Some { contents = [] } -> "?"
  | Some names -> String.concat " + " (List.sort String.compare !names)

let lines ?top t =
  let all =
    Hashtbl.fold
      (fun line s acc ->
        {
          ls_line = line;
          ls_region = region_of t line;
          ls_transfers = s.s_transfers;
          ls_cycles = s.s_cycles;
          ls_wait = s.s_wait;
          ls_max_sharers = s.s_max_sharers;
        }
        :: acc)
      t.stats []
  in
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare b.ls_transfers a.ls_transfers with
        | 0 -> Int.compare a.ls_line b.ls_line
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
    (fun ls ->
      match Hashtbl.find_opt tbl ls.ls_region with
      | Some (tr, cy) ->
        Hashtbl.replace tbl ls.ls_region (tr + ls.ls_transfers, cy + ls.ls_cycles)
      | None ->
        Hashtbl.add tbl ls.ls_region (ls.ls_transfers, ls.ls_cycles);
        order := ls.ls_region :: !order)
    (lines t);
  List.sort
    (fun (n1, t1, _) (n2, t2, _) ->
      match Int.compare t2 t1 with 0 -> String.compare n1 n2 | c -> c)
    (List.rev_map
       (fun name ->
         let tr, cy = Hashtbl.find tbl name in
         (name, tr, cy))
       !order)

let total_transfers t =
  Hashtbl.fold (fun _ s acc -> acc + s.s_transfers) t.stats 0

let print ?(top = 16) ppf t =
  Format.fprintf ppf "== cache-line contention (top %d by transfers) ==@." top;
  let rows =
    List.map
      (fun ls ->
        [
          Printf.sprintf "0x%x" (ls.ls_line lsl t.line_shift);
          ls.ls_region;
          string_of_int ls.ls_transfers;
          string_of_int ls.ls_cycles;
          string_of_int ls.ls_wait;
          string_of_int ls.ls_max_sharers;
        ])
      (lines ~top t)
  in
  Table.print_cols ppf [ "line"; "region"; "transfers"; "cycles"; "wait"; "sharers" ] rows;
  Format.fprintf ppf "@.== per-region coherence traffic ==@.";
  let rrows =
    List.map
      (fun (name, tr, cy) -> [ name; string_of_int tr; string_of_int cy ])
      (regions t)
  in
  Table.print_cols ppf [ "region"; "transfers"; "cycles" ] rrows
