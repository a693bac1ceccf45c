(* Golden tests for the table/CSV/chart renderers. *)

let table =
  {
    Obs.Table.title = "T";
    xlabel = "x";
    unit = "u";
    columns = [ "one"; "two" ];
    rows = [ ("a", [ Some 1.0; Some 2.0 ]); ("b", [ Some 1.5; None ]) ];
  }

let render f t =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_print () =
  let s = render Obs.Table.print table in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "missing %S in:\n%s" needle s)
    [ "== T [u] =="; "one"; "two"; "1.000"; "2.000"; "1.500"; "-" ]

let test_csv () =
  let s = render Obs.Table.print_csv table in
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "missing %S in:\n%s" needle s)
    [ "x,one,two"; "a,1.000000,2.000000"; "b,1.500000," ]

let test_plot () =
  let s = render (Obs.Table.plot ?height:None) table in
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "missing %S in:\n%s" needle s)
    [ "-- T [u] --"; "A = one"; "B = two"; "2.00" ];
  (* the glyph for the max value must sit on the top canvas row *)
  (match String.split_on_char '\n' s with
   | _title :: top :: _ ->
     Alcotest.(check bool) "B at the top" true (String.contains top 'B')
   | _ -> Alcotest.fail "unexpected plot shape")

let test_plot_empty () =
  let s =
    render (Obs.Table.plot ?height:None)
      { table with rows = []; columns = [] }
  in
  Alcotest.(check bool) "degrades gracefully" true
    (Astring.String.is_infix ~affix:"empty" s)

let test_cell_formats () =
  let wide =
    {
      table with
      rows = [ ("big", [ Some 12345.0; Some 42.5 ]); ("small", [ Some 0.001; None ]) ];
    }
  in
  let s = render Obs.Table.print wide in
  List.iter
    (fun needle ->
      if not (Astring.String.is_infix ~affix:needle s) then
        Alcotest.failf "missing %S in:\n%s" needle s)
    [ "12345"; "42.5"; "0.001" ]

(* Pivot: results as (row key, column, value) triples. *)
let pivot results =
  Obs.Table.pivot ~title:"P" ~xlabel:"n" ~unit:"u"
    ~rows:[ ("eight", 8); ("two", 2) ]
    ~columns:[ "b"; "a" ]
    ~key:(fun (n, c, _) -> (n, c))
    ~value:(fun (_, _, v) -> v)
    results

let rows_t = Alcotest.(list (pair string (list (option (float 0.0)))))

let test_pivot_order () =
  let t = pivot [ (2, "a", 1.0); (2, "b", 2.0); (8, "a", 3.0); (8, "b", 4.0) ] in
  Alcotest.(check (list string)) "columns as given" [ "b"; "a" ] t.columns;
  Alcotest.(check string) "title" "P" t.title;
  Alcotest.(check string) "xlabel" "n" t.xlabel;
  Alcotest.(check string) "unit" "u" t.unit;
  Alcotest.check rows_t "rows as given"
    [ ("eight", [ Some 4.0; Some 3.0 ]); ("two", [ Some 2.0; Some 1.0 ]) ]
    t.rows

let test_pivot_missing () =
  let t = pivot [ (2, "a", 1.0); (8, "b", 4.0); (16, "a", 9.0); (2, "c", 9.0) ] in
  Alcotest.check rows_t "missing cells are None"
    [ ("eight", [ Some 4.0; None ]); ("two", [ None; Some 1.0 ]) ]
    t.rows

let test_pivot_first_wins () =
  let t = pivot [ (8, "a", 1.0); (8, "a", 2.0); (2, "b", 5.0); (2, "b", 6.0) ] in
  Alcotest.check rows_t "first match wins"
    [ ("eight", [ None; Some 1.0 ]); ("two", [ Some 5.0; None ]) ]
    t.rows

let () =
  Alcotest.run "report"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_print;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "plot" `Quick test_plot;
          Alcotest.test_case "plot empty" `Quick test_plot_empty;
          Alcotest.test_case "cell formats" `Quick test_cell_formats;
        ] );
      ( "pivot",
        [
          Alcotest.test_case "order" `Quick test_pivot_order;
          Alcotest.test_case "missing cell" `Quick test_pivot_missing;
          Alcotest.test_case "first match wins" `Quick test_pivot_first_wins;
        ] );
    ]
