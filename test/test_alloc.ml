(* Allocator invariants for the sharded arena allocator (docs/ALLOCATION.md):
   overlap-freedom and stats/model agreement under random cross-thread
   malloc/free traffic on every policy, the remote-free ring's two drain
   points (owner malloc, fence), exhaustive-schedule integrity of the
   remote-reuse path via the litmus enumerator, the seeded premature-free
   EBR mutant, --jobs byte-identity of the placement sweep, and the
   zero-GC-allocation budget of the arena hot path. *)

module E = Explore

let all_policies =
  [
    Simmem.Shared_lifo;
    Simmem.Arena Simmem.Line_packed;
    Simmem.Arena Simmem.Line_isolated;
    Simmem.Arena Simmem.Cache_index_aware;
  ]

(* ------------------------------------------------------------------ *)
(* Random malloc/free traffic, checked against a model.               *)
(* ------------------------------------------------------------------ *)

(* Three threads malloc random sizes and free blocks from a shared pool —
   including blocks other threads allocated, so the remote-free path runs
   constantly. A shared OCaml-level model (base -> words) is safe because
   the simulator is cooperative: fibers only switch inside Simmem calls,
   never between a malloc's return and the model update. *)
let exercise ~policy ~threads ~ops ~seed =
  let mem = Simmem.create ~alloc:policy () in
  let live = Hashtbl.create 64 in
  let pool = ref [] in
  let overlaps base words b w = base < b + w && b < base + words in
  let body _i ctx =
    let rng = Sim.rng ctx in
    for _ = 1 to ops do
      (match !pool with
      | b :: rest when Sim.Rng.int rng 100 < 40 ->
        pool := rest;
        Simmem.free mem ctx b;
        Hashtbl.remove live b
      | _ ->
        let words = 1 + Sim.Rng.int rng 20 in
        let base = Simmem.malloc mem ctx words in
        if base <= 0 then Alcotest.failf "malloc returned non-address %d" base;
        Hashtbl.iter
          (fun b w ->
            if overlaps base words b w then
              Alcotest.failf "%s: fresh block [%d,+%d) overlaps live [%d,+%d)"
                (Simmem.alloc_label policy) base words b w)
          live;
        Hashtbl.replace live base words;
        pool := base :: !pool);
      Sim.note_progress ctx
    done
  in
  Sim.run ~seed (Array.init threads body);
  (* Full pairwise sweep of the final live set: catches any overlap the
     in-flight check could miss while two mallocs were interleaved. *)
  let sorted =
    List.sort compare (Hashtbl.fold (fun b w acc -> (b, w) :: acc) live [])
  in
  let rec adjacent = function
    | (b0, w0) :: ((b1, _) as n) :: rest ->
      if b0 + w0 > b1 then
        Alcotest.failf "%s: live blocks [%d,+%d) and [%d,..) overlap"
          (Simmem.alloc_label policy) b0 w0 b1;
      adjacent (n :: rest)
    | _ -> ()
  in
  adjacent sorted;
  (mem, live)

let check_model_agreement ~policy mem live =
  let st = Simmem.stats mem in
  let label = Simmem.alloc_label policy in
  Alcotest.(check int) (label ^ ": live_blocks matches model") (Hashtbl.length live)
    st.live_blocks;
  Alcotest.(check int)
    (label ^ ": live_words matches model")
    (Hashtbl.fold (fun _ w acc -> acc + w) live 0)
    st.live_words;
  Alcotest.(check int)
    (label ^ ": allocs - frees = live blocks")
    st.live_blocks (st.total_allocs - st.total_frees);
  Hashtbl.iter
    (fun b w ->
      Alcotest.(check (option int)) (label ^ ": block_size") (Some w)
        (Simmem.block_size mem b);
      Alcotest.(check bool) (label ^ ": last word allocated") true
        (Simmem.is_allocated mem (b + w - 1)))
    live;
  (* The extent accounting contract: under an arena policy every carved
     word is attributed to exactly one arena; the shared allocator
     reports no arenas at all. *)
  match Simmem.alloc mem with
  | Simmem.Shared_lifo ->
    Alcotest.(check (list (pair int int))) (label ^ ": no arenas") [] st.arena_extents
  | Simmem.Arena _ ->
    let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 st.arena_extents in
    Alcotest.(check int) (label ^ ": arena extents sum to heap extent") (st.heap_extent - 8)
      sum;
    List.iter
      (fun (tid, w) ->
        if tid < 0 || w < 0 then
          Alcotest.failf "%s: bad arena extent (%d, %d)" label tid w)
      st.arena_extents

let prop_no_overlap =
  QCheck.Test.make ~name:"no two live blocks overlap, stats match model (all policies)"
    ~count:15
    QCheck.(pair (int_range 0 10_000) (int_range 30 150))
    (fun (seed, ops) ->
      List.iter
        (fun policy ->
          let mem, live = exercise ~policy ~threads:3 ~ops ~seed in
          check_model_agreement ~policy mem live)
        all_policies;
      true)

(* The same traffic must make the same progress whatever the placement:
   malloc/free costs are placement-independent, so the schedule — and
   with it the op counts — is identical across all four policies. *)
let test_stats_consistent_across_policies () =
  let stats =
    List.map
      (fun policy ->
        let mem, _ = exercise ~policy ~threads:3 ~ops:120 ~seed:42 in
        (Simmem.alloc_label policy, Simmem.stats mem))
      all_policies
  in
  match stats with
  | [] -> assert false
  | (_, ref_st) :: rest ->
    List.iter
      (fun (label, st) ->
        Alcotest.(check int) (label ^ ": total_allocs") ref_st.Simmem.total_allocs
          st.Simmem.total_allocs;
        Alcotest.(check int) (label ^ ": total_frees") ref_st.Simmem.total_frees
          st.Simmem.total_frees;
        Alcotest.(check int) (label ^ ": live_blocks") ref_st.Simmem.live_blocks
          st.Simmem.live_blocks;
        Alcotest.(check int) (label ^ ": live_words") ref_st.Simmem.live_words
          st.Simmem.live_words)
      rest

(* ------------------------------------------------------------------ *)
(* Remote-free drain points.                                          *)
(* ------------------------------------------------------------------ *)

(* T1 frees T0's block remotely; T0's next same-size malloc drains the
   ring and hands the block back. Clock windows order the phases under
   the min-clock schedule. *)
let test_remote_free_reused_at_malloc () =
  let mem = Simmem.create ~alloc:(Simmem.Arena Simmem.Line_packed) () in
  let x = ref 0 in
  let t0 ctx =
    x := Simmem.malloc mem ctx 1;
    Simmem.write mem ctx !x 7;
    Sim.advance_to ctx 50_000;
    let st = Simmem.stats mem in
    Alcotest.(check int) "remote free parked before drain" 1 st.remote_pending;
    let y = Simmem.malloc mem ctx 1 in
    Alcotest.(check int) "owner's malloc reuses the remotely freed block" !x y;
    Alcotest.(check int) "reused word re-zeroed" 0 (Simmem.peek mem y)
  in
  let t1 ctx =
    Sim.advance_to ctx 1_000;
    Simmem.free mem ctx !x
  in
  Sim.run ~seed:3 [| t0; t1 |];
  let st = Simmem.stats mem in
  Alcotest.(check int) "remote_frees counted" 1 st.remote_frees;
  Alcotest.(check int) "nothing left pending" 0 st.remote_pending

(* The other drain point: a fence flushes the ring even with no malloc in
   sight, so quiescent owners still publish reusability. *)
let test_remote_free_drained_at_fence () =
  let mem = Simmem.create ~alloc:(Simmem.Arena Simmem.Line_isolated) () in
  let x = ref 0 in
  let t0 ctx =
    x := Simmem.malloc mem ctx 2;
    Sim.advance_to ctx 50_000;
    Alcotest.(check int) "pending before fence" 1 (Simmem.stats mem).remote_pending;
    Sim.fence ctx;
    Alcotest.(check int) "pending after fence" 0 (Simmem.stats mem).remote_pending;
    let y = Simmem.malloc mem ctx 2 in
    Alcotest.(check int) "fence-drained block is reusable" !x y
  in
  let t1 ctx =
    Sim.advance_to ctx 1_000;
    Simmem.free mem ctx !x
  in
  Sim.run ~seed:3 [| t0; t1 |]

(* ------------------------------------------------------------------ *)
(* Exhaustive schedules: the remote-reuse litmus program.              *)
(* ------------------------------------------------------------------ *)

(* Every schedule of every memory model: the (possibly reused) word holds
   exactly the new life's value at quiescence — no stale store from the
   old life, no torn drain, no fault. At least one schedule must reach
   the actual reuse or the test proves nothing. *)
let test_remote_reuse_litmus () =
  List.iter
    (fun (name, m) ->
      match E.Litmus.enumerate ~model:m E.Litmus.remote_reuse with
      | Error e -> Alcotest.fail e
      | Ok outcomes ->
        Alcotest.(check bool) (name ^ ": schedules explored") true (outcomes <> []);
        List.iter
          (function
            | [ v; reused ] ->
              if v <> 42 then
                Alcotest.failf "%s: reused word reads %d, not 42 (reuse=%d)" name v
                  reused
            | o ->
              Alcotest.failf "%s: bad outcome arity %d" name (List.length o))
          outcomes;
        Alcotest.(check bool)
          (name ^ ": some schedule reaches the reuse")
          true
          (List.mem [ 42; 1 ] outcomes))
    Sim.Memmodel.all

(* ------------------------------------------------------------------ *)
(* Epoch reclamation: the seeded mutant and its control.               *)
(* ------------------------------------------------------------------ *)

let scenario key =
  match E.Scenario.build ~key ~threads:3 ~ops:4 () with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* grace=1 frees a limbo bucket one epoch early; the explorer must find
   the use-after-free, shrink it and replay it deterministically. *)
let test_broken_epoch_caught () =
  match
    E.Search.search ~base_seed:1 ~max_violations:1 ~budget:2_000
      [ scenario "broken-epoch" ]
  with
  | { res_violations = v :: _; _ } ->
    Alcotest.(check bool) "recorded deviations reproduced the failure" true
      v.vio_replayed;
    let msg = v.vio_artifact.E.Artifact.art_message in
    Alcotest.(check bool) "violation is a memory fault" true
      (Astring.String.is_infix ~affix:"use-after-free" msg)
  | _ -> Alcotest.fail "broken-epoch was not caught within 2000 schedules"

(* The correct two-grace-period queue under the same aggressive advance
   cadence: clean. *)
let test_epoch_queue_clean () =
  let s = E.Search.search ~base_seed:1 ~budget:400 [ scenario "epoch-queue" ] in
  Alcotest.(check int) "violations" 0 (List.length s.res_violations);
  Alcotest.(check int) "runs" 400 s.res_runs

(* ------------------------------------------------------------------ *)
(* Determinism: the placement sweep at --jobs 1 vs 8.                  *)
(* ------------------------------------------------------------------ *)

let render tables =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (Obs.Table.print ppf) tables;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_placement_jobs_byte_identity () =
  let run jobs =
    let outcomes =
      Runner.Sweep.run ~jobs ~profile:true
        (Workload.Placement_bench.cells ~duration:15_000 ~seed:5 ())
    in
    render (Workload.Placement_bench.to_tables (Runner.Sweep.values outcomes))
  in
  Alcotest.(check string) "placement tables identical at jobs 1 vs 8" (run 1) (run 8)

(* ------------------------------------------------------------------ *)
(* Zero-GC-allocation budget of the sharded path (cf. test_perf.ml).   *)
(* ------------------------------------------------------------------ *)

let minor_delta f =
  ignore (f ());
  ignore (f ());
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  (r, w1 -. w0)

let accesses_of f =
  let reg = Obs.Metrics.create () in
  let saved = Workload.Driver.obs () in
  Workload.Driver.set_obs { saved with obs_metrics = Some reg };
  ignore (f ());
  Workload.Driver.set_obs saved;
  let snap = Obs.Metrics.snapshot reg in
  List.fold_left
    (fun acc name ->
      match List.assoc_opt ("mem." ^ name) snap with
      | Some (Obs.Metrics.Counter { total; _ }) -> acc + total
      | _ -> acc)
    0
    [ "reads"; "writes"; "atomics"; "allocs"; "frees" ]

(* The fig1 queue on an arena heap under line-granularity HTM: malloc,
   remote free (dequeuer frees the enqueuer's node) and ring drain all on
   the hot path, none of them may touch the OCaml heap per-operation. *)
let test_zero_alloc_arena_queue () =
  Workload.Driver.set_obs Workload.Driver.no_obs;
  let f () =
    Workload.Placement_bench.queue_one ~policy:Simmem.Line_packed ~threads:8
      ~duration:50_000 ~seed:11
  in
  let accesses = accesses_of f in
  Alcotest.(check bool) "cell performs real work" true (accesses > 1_000);
  let _, words = minor_delta f in
  let budget = 50_000.0 +. (0.5 *. float_of_int accesses) in
  if words > budget then
    Alcotest.failf
      "arena fig1 cell allocated %.0f minor words for %d simulated accesses (budget \
       %.0f): the sharded allocator hot path is allocating"
      words accesses budget

(* The raw allocator plane alone — malloc/free churn with a constant
   stream of remote frees, no HTM in the way. *)
let test_zero_alloc_churn () =
  let churn () =
    let mem = Simmem.create ~alloc:(Simmem.Arena Simmem.Line_packed) () in
    let slot = ref 0 in
    let t0 ctx =
      for _ = 1 to 5_000 do
        let b = Simmem.malloc mem ctx 3 in
        if !slot = 0 then slot := b else Simmem.free mem ctx b;
        Sim.note_progress ctx
      done
    in
    let t1 ctx =
      for _ = 1 to 5_000 do
        (if !slot <> 0 then begin
           Simmem.free mem ctx !slot;
           slot := 0
         end);
        Sim.tick ctx 10;
        Sim.note_progress ctx
      done
    in
    Sim.run ~seed:2 [| t0; t1 |];
    Simmem.stats mem
  in
  let st, words = minor_delta churn in
  Alcotest.(check bool) "remote path exercised" true (st.Simmem.remote_frees > 100);
  let ops = st.Simmem.total_allocs + st.Simmem.total_frees in
  let budget = 20_000.0 +. (0.5 *. float_of_int ops) in
  if words > budget then
    Alcotest.failf
      "malloc/free churn allocated %.0f minor words for %d allocator ops (budget %.0f)"
      words ops budget

let () =
  Alcotest.run "alloc"
    [
      ( "invariants",
        [
          QCheck_alcotest.to_alcotest prop_no_overlap;
          Alcotest.test_case "stats identical across policies" `Quick
            test_stats_consistent_across_policies;
        ] );
      ( "remote-free",
        [
          Alcotest.test_case "drained at owner's malloc, block reused" `Quick
            test_remote_free_reused_at_malloc;
          Alcotest.test_case "drained at fence" `Quick
            test_remote_free_drained_at_fence;
          Alcotest.test_case "remote-reuse litmus, all schedules x models" `Quick
            test_remote_reuse_litmus;
        ] );
      ( "epoch-reclamation",
        [
          Alcotest.test_case "broken-epoch caught, shrunk, replayed" `Quick
            test_broken_epoch_caught;
          Alcotest.test_case "epoch-queue clean" `Quick test_epoch_queue_clean;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "placement sweep, jobs 1 vs 8" `Quick
            test_placement_jobs_byte_identity;
        ] );
      ( "zero-alloc",
        [
          Alcotest.test_case "arena fig1 cell, no observers" `Quick
            test_zero_alloc_arena_queue;
          Alcotest.test_case "raw malloc/free churn" `Quick test_zero_alloc_churn;
        ] );
    ]
