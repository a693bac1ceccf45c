(* lib/runner tier-1 tests: the sweep determinism contract (output is
   byte-identical whatever [jobs] is), pool robustness under failure and
   oversubscription, and the shape differ that gates CI on BENCH
   artifacts. *)

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Determinism: jobs must never show through.                          *)

(* The deterministic face of a sweep: the rendered result table plus the
   absorbed metrics with the wall-clock telemetry ([runner.*]) removed —
   exactly what lands in a BENCH artifact. *)
let queue_sweep ~jobs =
  let cells = Workload.Queue_bench.cells ~threads:[ 1; 2; 4 ] ~duration:20_000 () in
  let outcomes = Runner.Sweep.run ~jobs ~metrics:true cells in
  let reg = Obs.Metrics.create () in
  Runner.Sweep.absorb ~into:reg outcomes;
  let table =
    Obs.Json.to_string
      (Obs.Table.to_json (Workload.Queue_bench.to_table (Runner.Sweep.values outcomes)))
  in
  let metrics =
    List.filter
      (fun (name, _) -> not (Astring.String.is_prefix ~affix:"runner." name))
      (Obs.Metrics.snapshot reg)
  in
  (table, metrics)

let test_jobs_byte_identical () =
  let t1, m1 = queue_sweep ~jobs:1 in
  let t8, m8 = queue_sweep ~jobs:8 in
  Alcotest.(check string) "result table byte-identical across jobs" t1 t8;
  check "absorbed metrics identical across jobs" true (m1 = m8)

(* Scheduling order must not leak into any cell: running the cell list
   reversed gives every label the same value. *)
let test_cell_order_independent () =
  let cells = Workload.Queue_bench.cells ~threads:[ 1; 2 ] ~duration:20_000 () in
  let by_label cs =
    Runner.Sweep.run ~jobs:2 cs
    |> List.map (fun (oc : _ Runner.Sweep.outcome) ->
           match oc.oc_value with
           | Ok (r : Workload.Queue_bench.result) -> (oc.oc_label, r.throughput)
           | Error e -> raise e)
    |> List.sort compare
  in
  check "per-label results independent of cell order" true
    (by_label cells = by_label (List.rev cells))

(* ------------------------------------------------------------------ *)
(* Pool robustness.                                                    *)

exception Boom

let test_failing_cell_isolated () =
  let cells =
    [
      Runner.Cell.v ~label:"ok/1" (fun () -> 1);
      Runner.Cell.v ~label:"boom" (fun () -> raise Boom);
      Runner.Cell.v ~label:"ok/2" (fun () -> 2);
    ]
  in
  let outcomes = Runner.Sweep.run ~jobs:4 cells in
  let errors =
    List.filter_map
      (fun (oc : _ Runner.Sweep.outcome) ->
        match oc.oc_value with Ok _ -> None | Error e -> Some (oc.oc_label, e))
      outcomes
  in
  (match errors with
  | [ ("boom", Boom) ] -> ()
  | errs ->
    Alcotest.failf "expected exactly the boom cell in errors, got %d" (List.length errs));
  let oks =
    List.filter_map
      (fun (oc : _ Runner.Sweep.outcome) ->
        match oc.oc_value with Ok v -> Some v | Error _ -> None)
      outcomes
  in
  Alcotest.(check (list int)) "surviving cells completed in order" [ 1; 2 ] oks;
  Alcotest.check_raises "values re-raises the failure" Boom (fun () ->
      ignore (Runner.Sweep.values outcomes))

let test_oversubscribed_pool () =
  let cells =
    List.init 5 (fun i -> Runner.Cell.v ~label:(Printf.sprintf "c%d" i) (fun () -> i * i))
  in
  Alcotest.(check (list int))
    "more domains than cells still completes every cell, in order"
    [ 0; 1; 4; 9; 16 ]
    (Runner.Sweep.values (Runner.Sweep.run ~jobs:16 cells))

(* ------------------------------------------------------------------ *)
(* The shape differ.                                                   *)

let artifact tables =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "bench/2");
      ("tables", Obs.Json.List (List.map Obs.Table.to_json tables));
    ]

(* A fig1-like shape: HTM behind MS at 2 threads, ahead from 4 on, so the
   HTM-vs-MS column pair carries one crossover at 2..4. *)
let base_table : Obs.Table.table =
  {
    title = "Figure 1";
    xlabel = "threads";
    unit = "ops/us";
    columns = [ "HTM"; "MS" ];
    rows =
      [
        ("2", [ Some 1.0; Some 1.2 ]);
        ("4", [ Some 2.0; Some 1.5 ]);
        ("8", [ Some 3.5; Some 1.6 ]);
      ];
  }

let kinds_of (r : Runner.Diff.report) =
  List.sort_uniq compare (List.map (fun (i : Runner.Diff.issue) -> i.i_kind) r.r_issues)

let test_diff_identity () =
  let a = artifact [ base_table ] in
  let r = Runner.Diff.diff ~old_artifact:a ~new_artifact:a () in
  check "identical artifacts: no regression" false (Runner.Diff.has_regression r);
  Alcotest.(check int) "one table compared" 1 r.r_tables;
  Alcotest.(check int) "six cells compared" 6 r.r_cells

(* A uniform 3 % drift must pass: shapes, not absolute values. *)
let test_diff_tolerates_uniform_drift () =
  let scaled =
    {
      base_table with
      rows =
        List.map
          (fun (x, vs) -> (x, List.map (Option.map (fun v -> v *. 1.03)) vs))
          base_table.rows;
    }
  in
  let r =
    Runner.Diff.diff ~old_artifact:(artifact [ base_table ])
      ~new_artifact:(artifact [ scaled ]) ()
  in
  check "3% uniform drift: no regression" false (Runner.Diff.has_regression r)

let test_diff_flags_ratio () =
  (* Double one cell but keep every ordering and the crossover intact. *)
  let bumped =
    { base_table with rows = [ ("2", [ Some 1.0; Some 1.2 ]);
                               ("4", [ Some 2.0; Some 1.5 ]);
                               ("8", [ Some 7.0; Some 1.6 ]) ] }
  in
  let r =
    Runner.Diff.diff ~old_artifact:(artifact [ base_table ])
      ~new_artifact:(artifact [ bumped ]) ()
  in
  check "2x single cell: regression" true (Runner.Diff.has_regression r);
  Alcotest.(check (list string)) "only the ratio check fires" [ "ratio" ] (kinds_of r)

let test_diff_flags_ordering_and_crossover () =
  (* Flip the 8-thread ordering (HTM drops below MS): with a wide ratio
     band only the ordering reversal and the moved crossover remain. *)
  let flipped =
    { base_table with rows = [ ("2", [ Some 1.0; Some 1.2 ]);
                               ("4", [ Some 2.0; Some 1.5 ]);
                               ("8", [ Some 1.0; Some 1.6 ]) ] }
  in
  let r =
    Runner.Diff.diff ~ratio_tol:10.0 ~old_artifact:(artifact [ base_table ])
      ~new_artifact:(artifact [ flipped ]) ()
  in
  check "flipped ordering: regression" true (Runner.Diff.has_regression r);
  Alcotest.(check (list string))
    "ordering and crossover checks fire" [ "crossover"; "ordering" ] (kinds_of r)

let test_diff_missing_table () =
  let r =
    Runner.Diff.diff ~old_artifact:(artifact [ base_table ]) ~new_artifact:(artifact [])
      ()
  in
  check "disappeared table: regression" true (Runner.Diff.has_regression r);
  Alcotest.(check (list string)) "missing-table fires" [ "missing-table" ] (kinds_of r)

let test_diff_column_rename () =
  let renamed = { base_table with columns = [ "HTM"; "MichaelScott" ] } in
  let r =
    Runner.Diff.diff ~old_artifact:(artifact [ base_table ])
      ~new_artifact:(artifact [ renamed ]) ()
  in
  Alcotest.(check (list string)) "columns check fires" [ "columns" ] (kinds_of r)

(* Golden rendering of the [bench diff] report: the exact text CI logs
   show, pinned byte for byte. *)
let test_diff_report_golden () =
  let a = artifact [ base_table ] in
  let r = Runner.Diff.diff ~old_artifact:a ~new_artifact:a () in
  let rendered = Format.asprintf "%a" Runner.Diff.print r in
  let expected =
    String.concat "\n"
      [
        "== bench diff: shape comparison [count] ==";
        "check            issues  ";
        "tables-compared  1.000   ";
        "cells-compared   6.000   ";
        "columns          0.000   ";
        "rows             0.000   ";
        "missing-value    0.000   ";
        "ratio            0.000   ";
        "ordering         0.000   ";
        "crossover        0.000   ";
        "missing-table    0.000   ";
        "new-table        0.000   ";
        "malformed        0.000   ";
        "";
        "shapes preserved";
        "";
      ]
  in
  Alcotest.(check string) "diff report renders exactly" expected rendered

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 8 byte-identical" `Slow test_jobs_byte_identical;
          Alcotest.test_case "cell order independent" `Slow test_cell_order_independent;
        ] );
      ( "pool",
        [
          Alcotest.test_case "failing cell isolated" `Quick test_failing_cell_isolated;
          Alcotest.test_case "oversubscribed pool" `Quick test_oversubscribed_pool;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identity" `Quick test_diff_identity;
          Alcotest.test_case "uniform drift passes" `Quick test_diff_tolerates_uniform_drift;
          Alcotest.test_case "ratio flagged" `Quick test_diff_flags_ratio;
          Alcotest.test_case "ordering + crossover flagged" `Quick
            test_diff_flags_ordering_and_crossover;
          Alcotest.test_case "missing table flagged" `Quick test_diff_missing_table;
          Alcotest.test_case "column rename flagged" `Quick test_diff_column_rename;
          Alcotest.test_case "report golden" `Quick test_diff_report_golden;
        ] );
    ]
