(* The weak-memory plane: litmus goldens per Sim.Memmodel variant
   (exhaustively enumerated schedules), fence/drain unit semantics on the
   raw Simmem store buffers, and the two closure properties — fencing
   every store recovers sc outcomes, and the memorder sweep is
   byte-identical at any --jobs. *)

module E = Explore

let model name =
  match Sim.Memmodel.of_string name with
  | Some m -> m
  | None -> Alcotest.failf "unknown model %s" name

let sc = model "sc"
let sb = model "sb"
let sb_bypass = model "sb-bypass"
let sb_fence_nop = model "sb-fence-nop"

let outcomes ~model prog =
  match E.Litmus.enumerate ~model prog with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let check_outcomes name ~model:m prog expected =
  Alcotest.(check (list (list int))) name expected (outcomes ~model:m prog)

(* ------------------------------------------------------------------ *)
(* Litmus goldens. The full 24-cell matrix: outcome sets are sorted and
   exhaustive, so equality pins both the allowed and the forbidden side
   of every fingerprint (the table in docs/MEMORY_ORDERING.md).        *)
(* ------------------------------------------------------------------ *)

(* SB: (0,0) — both loads miss both stores — reachable iff buffered.
   Under the buffered variants (1,1) drops out instead: stores drain
   only at sync points or the exit flush, both after the program-order
   loads. *)
let test_sb () =
  check_outcomes "sc" ~model:sc E.Litmus.sb [ [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ];
  List.iter
    (fun m ->
      check_outcomes "buffered" ~model:m E.Litmus.sb [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ] ])
    [ sb; sb_bypass; sb_fence_nop ]

(* SB+fence: the TSO repair. Real fences restore the sc outcome set;
   the fence-nop control keeps the relaxed (0,0), proving the harness
   tests fence semantics rather than accidental timing. *)
let test_sb_fenced () =
  let sc_set = [ [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  List.iter
    (fun m -> check_outcomes "fenced" ~model:m E.Litmus.sb_fenced sc_set)
    [ sc; sb; sb_bypass ];
  check_outcomes "fence-nop" ~model:sb_fence_nop E.Litmus.sb_fenced
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ] ]

(* MP/LB/CoRR: forbidden under every variant — a FIFO store buffer never
   reorders store-store, load-store, or same-location reads. *)
let test_mp_lb_corr () =
  List.iter
    (fun m ->
      check_outcomes "MP" ~model:m E.Litmus.mp [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ];
      check_outcomes "LB" ~model:m E.Litmus.lb [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ] ];
      check_outcomes "CoRR" ~model:m E.Litmus.corr [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ])
    [ sc; sb; sb_bypass; sb_fence_nop ]

(* RoW: store-to-load forwarding. Only sb-bypass (buffering without
   forwarding) reads the stale 0. *)
let test_row () =
  List.iter
    (fun m -> check_outcomes "forwarding" ~model:m E.Litmus.row [ [ 1 ] ])
    [ sc; sb; sb_fence_nop ];
  check_outcomes "bypass" ~model:sb_bypass E.Litmus.row [ [ 0 ] ]

(* ------------------------------------------------------------------ *)
(* Fence/drain unit semantics on the raw store buffer.                 *)
(* ------------------------------------------------------------------ *)

let with_thread ?(model = sb) f =
  let mem = Simmem.create ~model () in
  let boot = Sim.boot () in
  let addrs = Array.init 12 (fun _ -> Simmem.malloc mem boot 2) in
  Sim.run ~seed:0 [| (fun ctx -> f mem addrs ctx) |];
  (mem, boot, addrs)

(* A buffered store is invisible in memory until a fence drains it; the
   buffer is FIFO and [pending_stores] tracks its depth. *)
let test_fence_drains () =
  let observed = ref [] in
  let _ =
    with_thread (fun mem a ctx ->
        Simmem.write mem ctx a.(0) 7;
        Simmem.write mem ctx a.(1) 8;
        observed :=
          [ Simmem.pending_stores mem ctx;
            Simmem.peek mem a.(0); Simmem.peek mem a.(1) ];
        Sim.fence ctx;
        observed :=
          !observed
          @ [ Simmem.pending_stores mem ctx;
              Simmem.peek mem a.(0); Simmem.peek mem a.(1) ])
  in
  Alcotest.(check (list int)) "buffered then drained" [ 2; 0; 0; 0; 7; 8 ] !observed

(* CAS and fetch_add are implicit full fences: the prior buffered store
   must be in memory before the atomic executes. *)
let test_atomics_fence () =
  let observed = ref [] in
  let _ =
    with_thread (fun mem a ctx ->
        Simmem.write mem ctx a.(0) 5;
        ignore (Simmem.cas mem ctx a.(1) ~expected:0 ~desired:1);
        observed := [ Simmem.pending_stores mem ctx; Simmem.peek mem a.(0) ];
        Simmem.write mem ctx a.(2) 6;
        ignore (Simmem.fetch_add mem ctx a.(3) 1);
        observed :=
          !observed @ [ Simmem.pending_stores mem ctx; Simmem.peek mem a.(2) ])
  in
  Alcotest.(check (list int)) "atomics drained" [ 0; 5; 0; 6 ] !observed

(* Thread exit flushes the buffer (TSO cores do not lose buffered stores
   on halt): after Sim.run returns, everything is in memory. *)
let test_terminal_drain () =
  let mem, _, a =
    with_thread (fun mem a ctx ->
        Simmem.write mem ctx a.(4) 11;
        Simmem.write mem ctx a.(5) 12)
  in
  Alcotest.(check (list int))
    "exit flushed" [ 11; 12 ]
    [ Simmem.peek mem a.(4); Simmem.peek mem a.(5) ]

(* A bounded buffer drains its oldest entry on overflow: depth is capped
   at sb_depth and the oldest store becomes visible first (FIFO). *)
let test_capacity_drain () =
  let depth = sb.Sim.Memmodel.sb_depth in
  let observed = ref [] in
  let _ =
    with_thread (fun mem a ctx ->
        for i = 0 to depth do
          Simmem.write mem ctx a.(i) (100 + i)
        done;
        observed := [ Simmem.pending_stores mem ctx; Simmem.peek mem a.(0) ])
  in
  Alcotest.(check (list int)) "oldest drained at capacity" [ depth; 100 ] !observed

(* Draining a store whose word was freed in the meantime is the module's
   whole point: the visibility step faults, exactly like the hardware
   store would corrupt freed memory. *)
let test_drain_uaf_faults () =
  (* free is itself a fence for the caller: write-then-free in one thread
     drains first, legally. *)
  let mem = Simmem.create ~model:sb () in
  let addr = Simmem.malloc mem (Sim.boot ()) 2 in
  Sim.run ~seed:0
    [|
      (fun ctx ->
        Simmem.write mem ctx addr 9;
        Simmem.free mem ctx addr);
    |];
  (* But another thread freeing the word while the store still sits in
     the writer's buffer makes the writer's own drain the fault point —
     the exact mechanism behind the ms-nofence hunt. *)
  let mem2 = Simmem.create ~model:sb () in
  let boot2 = Sim.boot () in
  let addr2 = Simmem.malloc mem2 boot2 2 in
  let flag = Simmem.malloc mem2 boot2 2 in
  let faulted = ref false in
  (try
     Sim.run ~seed:0
       [|
         (fun ctx ->
           Simmem.write mem2 ctx addr2 9;
           while Simmem.read mem2 ctx flag = 0 do
             Sim.tick ctx 10
           done;
           Sim.fence ctx);
         (fun ctx ->
           Simmem.free mem2 ctx addr2;
           ignore (Simmem.cas mem2 ctx flag ~expected:0 ~desired:1));
       |]
   with Simmem.Fault _ -> faulted := true);
  Alcotest.(check bool) "drain into freed word faults" true !faulted

(* sc is the degenerate model: no writes are ever pending, and a fence is
   pure cost. *)
let test_sc_never_buffers () =
  let observed = ref (-1) in
  let _ =
    with_thread ~model:sc (fun mem a ctx ->
        Simmem.write mem ctx a.(0) 3;
        observed := Simmem.pending_stores mem ctx;
        Alcotest.(check int) "visible at once" 3 (Simmem.peek mem a.(0)))
  in
  Alcotest.(check int) "nothing pending" 0 !observed

(* ------------------------------------------------------------------ *)
(* Properties: fence-closure and determinism.                          *)
(* ------------------------------------------------------------------ *)

(* Under sb with a fence after every store, a straight-line two-thread
   program's outcome set equals sc's. Programs are random interleavings
   of writes and reads over 4 locations, derived from a seed. *)
let prop_fenced_sb_equals_sc =
  QCheck.Test.make ~name:"sb with a fence after every store == sc" ~count:30
    QCheck.(small_int)
    (fun seed ->
      let prog ~fenced =
        {
          E.Litmus.prog_name = "random";
          prog_setup =
            (fun ~model ->
              let mem = Simmem.create ~model () in
              let boot = Sim.boot () in
              let locs = Array.init 3 (fun _ -> Simmem.malloc mem boot 2) in
              let regs = Array.make 4 (-1) in
              let rng = Random.State.make [| seed |] in
              let body tbase _tid ctx =
                for i = 0 to 1 do
                  let l = locs.(Random.State.int rng 3) in
                  if Random.State.bool rng then begin
                    Simmem.write mem ctx l (tbase + i + 1);
                    if fenced then Sim.fence ctx
                  end
                  else regs.(tbase + i) <- Simmem.read mem ctx l
                done
              in
              ( [| body 0 0; body 2 1 |],
                fun () -> Array.to_list regs ));
        }
      in
      (* The RNG must deal the same program to both models: rebuild the
         program per enumerate call, seeding from scratch each run. *)
      let run ~fenced ~model =
        match E.Litmus.enumerate ~budget:60_000 ~model (prog ~fenced) with
        | Ok o -> o
        | Error e -> QCheck.Test.fail_report e
      in
      run ~fenced:true ~model:sb = run ~fenced:true ~model:sc)

(* Same seed and model => same decision string, and the memorder bench
   cells are byte-identical at --jobs 1 and --jobs 4 (cells are
   independent pure functions; the sweep preserves order). *)
let test_determinism () =
  let scn =
    match E.Scenario.build ~key:"ms-nofence" ~model:sb ~threads:3 ~ops:3 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let decisions () =
    let r = Sim.recorder () in
    ignore
      (scn.scn_run
         ~strategy:(Sim.Pct { pct_seed = 3; pct_depth = 3; pct_length = 200 })
         ~seed:11 ~faults:None ~record:(Some r) ~trace:None ~tracer:None);
    Sim.decision_string r
  in
  Alcotest.(check string) "same seed+model => same schedule" (decisions ())
    (decisions ());
  let fingerprints jobs =
    Runner.Sweep.run ~jobs (Workload.Memorder_bench.cells ~seed:1 ())
    |> Runner.Sweep.values
    |> List.map (function
         | Workload.Memorder_bench.Search s ->
           Printf.sprintf "%s/%s:%d:%d:%d" s.ms_scenario s.ms_model s.ms_runs
             s.ms_violations s.ms_first_violation
         | Workload.Memorder_bench.Litmus l ->
           Printf.sprintf "%s/%s:%d:%b" l.lt_program l.lt_model l.lt_outcomes
             l.lt_relaxed)
  in
  Alcotest.(check (list string))
    "memorder cells byte-identical across jobs" (fingerprints 1) (fingerprints 4)

(* ------------------------------------------------------------------ *)
(* The headline claims, as tests: the fence-dropping mutant is caught
   under sb and clean under sc; the HTM queue is clean everywhere.     *)
(* ------------------------------------------------------------------ *)

let search ~key ~model:m ~budget =
  let scn =
    match E.Scenario.build ~key ~model:m ~threads:3 ~ops:4 () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  E.Search.search ~base_seed:1 ~max_violations:1 ~budget [ scn ]

let test_nofence_caught_under_sb () =
  let s = search ~key:"ms-nofence" ~model:sb ~budget:800 in
  match s.res_violations with
  | [] -> Alcotest.fail "no violation found in ms-nofence under sb within 800 runs"
  | v :: _ ->
    Alcotest.(check bool) "replayed" true v.vio_replayed;
    Alcotest.(check string) "artifact records the model" "sb"
      v.vio_artifact.art_model

let test_nofence_clean_under_sc () =
  let s = search ~key:"ms-nofence" ~model:sc ~budget:800 in
  Alcotest.(check int) "violations" 0 (List.length s.res_violations)

let test_htm_clean_under_all () =
  List.iter
    (fun (name, m) ->
      let s = search ~key:"htm-memorder" ~model:m ~budget:150 in
      Alcotest.(check int) (Printf.sprintf "violations under %s" name) 0
        (List.length s.res_violations))
    Sim.Memmodel.all

let () =
  Alcotest.run "memorder"
    [
      ( "litmus",
        [
          Alcotest.test_case "SB" `Quick test_sb;
          Alcotest.test_case "SB+fence" `Quick test_sb_fenced;
          Alcotest.test_case "MP/LB/CoRR" `Quick test_mp_lb_corr;
          Alcotest.test_case "RoW" `Quick test_row;
        ] );
      ( "fences",
        [
          Alcotest.test_case "fence drains" `Quick test_fence_drains;
          Alcotest.test_case "atomics are fences" `Quick test_atomics_fence;
          Alcotest.test_case "exit flushes" `Quick test_terminal_drain;
          Alcotest.test_case "capacity drain" `Quick test_capacity_drain;
          Alcotest.test_case "drain UAF faults" `Quick test_drain_uaf_faults;
          Alcotest.test_case "sc never buffers" `Quick test_sc_never_buffers;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_fenced_sb_equals_sc;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "hunting",
        [
          Alcotest.test_case "ms-nofence caught under sb" `Quick
            test_nofence_caught_under_sb;
          Alcotest.test_case "ms-nofence clean under sc" `Quick
            test_nofence_clean_under_sc;
          Alcotest.test_case "htm clean under every model" `Quick
            test_htm_clean_under_all;
        ] );
    ]
