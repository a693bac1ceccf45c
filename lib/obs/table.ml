type table = {
  title : string;
  xlabel : string;
  unit : string;
  columns : string list;
  rows : (string * float option list) list;
}

(* Keys are compared structurally; [List.find_opt] makes the first match
   of a cell win. *)
let pivot ~title ~xlabel ~unit ~rows ~columns ~key ~value results =
  let cell r c = List.find_opt (fun x -> key x = (r, c)) results |> Option.map value in
  { title; xlabel; unit; columns;
    rows = List.map (fun (label, r) -> (label, List.map (cell r) columns)) rows }

let counts ~title ~xlabel ~unit ~columns row results =
  let row r =
    let label, ns = row r in
    (label, List.map (fun n -> Some (float_of_int n)) ns)
  in
  { title; xlabel; unit; columns; rows = List.map row results }

let cell = function
  | None -> "-"
  | Some v ->
    if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
    else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.3f" v

(* The layout engine: size each column to its widest entry (header
   included), pad short rows. Every aligned listing in the repo goes
   through here. *)
let print_cols ppf header rows =
  let ncols = List.length header in
  let pad row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map pad rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        Format.fprintf ppf "%-*s  " w c)
      cells;
    Format.fprintf ppf "@."
  in
  print_row header;
  List.iter print_row rows

let print ppf t =
  Format.fprintf ppf "== %s [%s] ==@." t.title t.unit;
  let headers = t.xlabel :: t.columns in
  let body = List.map (fun (x, vs) -> x :: List.map cell vs) t.rows in
  print_cols ppf headers body;
  Format.fprintf ppf "@."

(* ASCII chart: series as glyph-coded curves over the row order. Each row
   occupies a fixed number of character columns; values are scaled into
   [height] text rows. Collisions print '*'. *)
let series_glyphs = [| 'A'; 'B'; 'C'; 'D'; 'E'; 'F'; 'G'; 'H'; 'I'; 'J' |]

let plot ?(height = 14) ppf t =
  let nrows = List.length t.rows in
  let ncols = List.length t.columns in
  if nrows = 0 || ncols = 0 then Format.fprintf ppf "(empty table)@."
  else begin
    let vmax =
      List.fold_left
        (fun acc (_, vs) ->
          List.fold_left
            (fun acc -> function Some v -> Float.max acc v | None -> acc)
            acc vs)
        0.0 t.rows
    in
    let vmax = if vmax <= 0.0 then 1.0 else vmax in
    let step = 3 (* character columns per x position *) in
    let width = nrows * step in
    let canvas = Array.make_matrix height width ' ' in
    List.iteri
      (fun ri (_, vs) ->
        List.iteri
          (fun ci v ->
            match v with
            | None -> ()
            | Some v ->
              let y = int_of_float (Float.round (v /. vmax *. float_of_int (height - 1))) in
              let y = height - 1 - max 0 (min (height - 1) y) in
              let x = ri * step in
              let g = series_glyphs.(ci mod Array.length series_glyphs) in
              canvas.(y).(x) <- (if canvas.(y).(x) = ' ' then g else '*'))
          vs)
      t.rows;
    Format.fprintf ppf "-- %s [%s] --@." t.title t.unit;
    Array.iteri
      (fun i line ->
        let label =
          if i = 0 then Printf.sprintf "%8.2f |" vmax
          else if i = height - 1 then Printf.sprintf "%8.2f |" 0.0
          else "         |"
        in
        Format.fprintf ppf "%s%s@." label (String.init width (fun j -> line.(j))))
      canvas;
    Format.fprintf ppf "         +%s@." (String.make width '-');
    (* sparse x labels *)
    let labels = List.map fst t.rows in
    let buf = Bytes.make width ' ' in
    List.iteri
      (fun ri lbl ->
        if ri mod 2 = 0 then begin
          let x = ri * step in
          String.iteri
            (fun k c -> if x + k < width then Bytes.set buf (x + k) c)
            (if String.length lbl > step + 1 then String.sub lbl 0 (step + 1) else lbl)
        end)
      labels;
    Format.fprintf ppf "          %s@." (Bytes.to_string buf);
    List.iteri
      (fun ci col ->
        Format.fprintf ppf "          %c = %s@."
          series_glyphs.(ci mod Array.length series_glyphs)
          col)
      t.columns;
    Format.fprintf ppf "@."
  end

let print_csv ppf t =
  Format.fprintf ppf "# %s [%s]@." t.title t.unit;
  Format.fprintf ppf "%s@." (String.concat "," (t.xlabel :: t.columns));
  List.iter
    (fun (x, vs) ->
      let cells =
        List.map (function None -> "" | Some v -> Printf.sprintf "%.6f" v) vs
      in
      Format.fprintf ppf "%s@." (String.concat "," (x :: cells)))
    t.rows;
  Format.fprintf ppf "@."

(* Inverse of {!to_json}, strict: [bench diff] reads tables back out of
   BENCH artifacts with it, and a malformed table must be a loud finding
   rather than a silently skipped one. *)
let of_json j =
  let str_list = function
    | Json.List l ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | Json.Str s :: rest -> go (s :: acc) rest
        | _ -> None
      in
      go [] l
    | _ -> None
  in
  let cell_of = function
    | Json.Null -> Some None
    | v -> (match Json.to_float v with Some f -> Some (Some f) | None -> None)
  in
  let row_of = function
    | Json.Obj _ as r ->
      (match (Json.member "x" r, Json.member "values" r) with
       | Some (Json.Str x), Some (Json.List vs) ->
         let rec cells acc = function
           | [] -> Some (List.rev acc)
           | v :: rest ->
             (match cell_of v with Some c -> cells (c :: acc) rest | None -> None)
         in
         Option.map (fun cs -> (x, cs)) (cells [] vs)
       | _ -> None)
    | _ -> None
  in
  match
    ( Json.member "title" j, Json.member "xlabel" j, Json.member "unit" j,
      Json.member "columns" j, Json.member "rows" j )
  with
  | Some (Json.Str title), Some (Json.Str xlabel), Some (Json.Str unit), Some cols,
    Some (Json.List rows) ->
    (match str_list cols with
     | None -> Error "table: bad columns"
     | Some columns ->
       let rec go acc = function
         | [] -> Ok { title; xlabel; unit; columns; rows = List.rev acc }
         | r :: rest ->
           (match row_of r with
            | Some row -> go (row :: acc) rest
            | None -> Error (Printf.sprintf "table %S: bad row" title))
       in
       go [] rows)
  | _ -> Error "table: missing title/xlabel/unit/columns/rows"

let to_json t =
  Json.Obj
    [
      ("title", Json.Str t.title);
      ("xlabel", Json.Str t.xlabel);
      ("unit", Json.Str t.unit);
      ("columns", Json.List (List.map (fun c -> Json.Str c) t.columns));
      ( "rows",
        Json.List
          (List.map
             (fun (x, vs) ->
               Json.Obj
                 [
                   ("x", Json.Str x);
                   ( "values",
                     Json.List
                       (List.map
                          (function None -> Json.Null | Some v -> Json.Float v)
                          vs) );
                 ])
             t.rows) );
    ]
