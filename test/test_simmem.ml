(* Tests for the simulated memory: allocator, fault detection, versions,
   coherence costs. *)

let make () = (Simmem.create (), Sim.boot ())

let test_malloc_zeroed () =
  let mem, ctx = make () in
  let b = Simmem.malloc mem ctx 8 in
  for i = 0 to 7 do
    Alcotest.(check int) "zeroed" 0 (Simmem.read mem ctx (b + i))
  done

let test_read_write () =
  let mem, ctx = make () in
  let b = Simmem.malloc mem ctx 4 in
  Simmem.write mem ctx (b + 2) 777;
  Alcotest.(check int) "read back" 777 (Simmem.read mem ctx (b + 2));
  Alcotest.(check int) "neighbour untouched" 0 (Simmem.read mem ctx (b + 1))

let test_null_fault () =
  let mem, ctx = make () in
  Alcotest.check_raises "null read" (Simmem.Fault (Simmem.Unallocated 0)) (fun () ->
      ignore (Simmem.read mem ctx Simmem.null))

let test_use_after_free () =
  let mem, ctx = make () in
  let b = Simmem.malloc mem ctx 4 in
  Simmem.free mem ctx b;
  Alcotest.check_raises "dangling read" (Simmem.Fault (Simmem.Use_after_free (b + 1)))
    (fun () -> ignore (Simmem.read mem ctx (b + 1)));
  Alcotest.check_raises "dangling write" (Simmem.Fault (Simmem.Use_after_free b)) (fun () ->
      Simmem.write mem ctx b 1)

let test_double_free () =
  let mem, ctx = make () in
  let b = Simmem.malloc mem ctx 4 in
  Simmem.free mem ctx b;
  Alcotest.check_raises "double free" (Simmem.Fault (Simmem.Double_free b)) (fun () ->
      Simmem.free mem ctx b)

let test_invalid_free () =
  let mem, ctx = make () in
  let b = Simmem.malloc mem ctx 4 in
  Alcotest.check_raises "interior free" (Simmem.Fault (Simmem.Invalid_free (b + 1)))
    (fun () -> Simmem.free mem ctx (b + 1))

let test_reuse_same_size () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 4 in
  Simmem.free mem ctx a;
  let b = Simmem.malloc mem ctx 4 in
  Alcotest.(check int) "LIFO reuse of equal-size block" a b;
  let c = Simmem.malloc mem ctx 5 in
  Alcotest.(check bool) "different size not reused" true (c <> a)

let test_reuse_zeroes () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 2 in
  Simmem.write mem ctx a 123;
  Simmem.free mem ctx a;
  let b = Simmem.malloc mem ctx 2 in
  Alcotest.(check int) "recycled block zeroed" 0 (Simmem.read mem ctx b)

let test_stats () =
  let mem, ctx = make () in
  let s0 = Simmem.stats mem in
  let a = Simmem.malloc mem ctx 10 in
  let b = Simmem.malloc mem ctx 6 in
  let s1 = Simmem.stats mem in
  Alcotest.(check int) "live words" (s0.live_words + 16) s1.live_words;
  Alcotest.(check int) "live blocks" (s0.live_blocks + 2) s1.live_blocks;
  Simmem.free mem ctx a;
  Simmem.free mem ctx b;
  let s2 = Simmem.stats mem in
  Alcotest.(check int) "back to baseline words" s0.live_words s2.live_words;
  Alcotest.(check int) "peak retained" s1.live_words s2.peak_live_words;
  Alcotest.(check int) "alloc count" (s0.total_allocs + 2) s2.total_allocs;
  Alcotest.(check int) "free count" (s0.total_frees + 2) s2.total_frees

(* Policy-aware extent accounting: under the shared allocator the heap
   extent is the plain bump pointer and there are no arenas to report;
   under an arena policy every carved word is attributed to exactly one
   arena and the per-arena extents partition the heap past the null
   line. *)
let test_shared_extent () =
  let mem, ctx = make () in
  let s0 = Simmem.stats mem in
  Alcotest.(check (list (pair int int))) "shared-lifo reports no arenas" []
    s0.arena_extents;
  let a = Simmem.malloc mem ctx 10 in
  let s1 = Simmem.stats mem in
  Alcotest.(check int) "bump allocation extends the extent exactly"
    (s0.heap_extent + 10) s1.heap_extent;
  Simmem.free mem ctx a;
  let b = Simmem.malloc mem ctx 10 in
  Alcotest.(check int) "LIFO reuse" a b;
  Alcotest.(check int) "reuse leaves the extent alone" s1.heap_extent
    (Simmem.stats mem).heap_extent;
  Alcotest.(check (list (pair int int))) "still no arenas" []
    (Simmem.stats mem).arena_extents

let test_arena_extents () =
  List.iter
    (fun placement ->
      let label = Simmem.placement_label placement in
      let mem = Simmem.create ~alloc:(Simmem.Arena placement) () in
      (* Heavy enough to outgrow one arena chunk even under the packing
         policy, so the per-arena attribution is visible (chunks are
         carved in 512-word units). *)
      let t0 ctx =
        for _ = 1 to 40 do
          ignore (Simmem.malloc mem ctx 17)
        done
      in
      let t1 ctx = ignore (Simmem.malloc mem ctx 1) in
      Sim.run ~seed:1 [| t0; t1 |];
      let st = Simmem.stats mem in
      let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 st.arena_extents in
      Alcotest.(check int)
        (label ^ ": arena extents partition the heap extent")
        (st.heap_extent - 8) sum;
      let w0 =
        match List.assoc_opt 0 st.arena_extents with
        | Some w -> w
        | None -> Alcotest.failf "%s: thread 0 carved no arena" label
      and w1 =
        match List.assoc_opt 1 st.arena_extents with
        | Some w -> w
        | None -> Alcotest.failf "%s: thread 1 carved no arena" label
      in
      Alcotest.(check bool)
        (label ^ ": the heavy allocator is attributed the larger extent")
        true (w0 > w1);
      Alcotest.(check bool)
        (label ^ ": extents in tid order")
        true
        (List.sort compare st.arena_extents = st.arena_extents))
    [ Simmem.Line_packed; Simmem.Line_isolated; Simmem.Cache_index_aware ]

let test_block_size () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 7 in
  Alcotest.(check (option int)) "size" (Some 7) (Simmem.block_size mem a);
  Alcotest.(check (option int)) "interior is not a block" None (Simmem.block_size mem (a + 1));
  Simmem.free mem ctx a;
  Alcotest.(check (option int)) "freed block gone" None (Simmem.block_size mem a)

let test_versions () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 2 in
  let v0 = Simmem.version mem a in
  Simmem.write mem ctx a 1;
  Alcotest.(check int) "write bumps" (v0 + 1) (Simmem.version mem a);
  let (_ : bool) = Simmem.cas mem ctx a ~expected:1 ~desired:2 in
  Alcotest.(check int) "successful cas bumps" (v0 + 2) (Simmem.version mem a);
  let (_ : bool) = Simmem.cas mem ctx a ~expected:99 ~desired:3 in
  Alcotest.(check int) "failed cas does not bump" (v0 + 2) (Simmem.version mem a);
  Simmem.free mem ctx a;
  Alcotest.(check bool) "free bumps" true (Simmem.version mem a > v0 + 2)

let test_cas_semantics () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 1 in
  Alcotest.(check bool) "cas succeeds" true (Simmem.cas mem ctx a ~expected:0 ~desired:5);
  Alcotest.(check bool) "cas fails" false (Simmem.cas mem ctx a ~expected:0 ~desired:9);
  Alcotest.(check int) "value after failed cas" 5 (Simmem.read mem ctx a)

let test_fetch_add () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 1 in
  Alcotest.(check int) "returns old" 0 (Simmem.fetch_add mem ctx a 3);
  Alcotest.(check int) "returns old again" 3 (Simmem.fetch_add mem ctx a (-1));
  Alcotest.(check int) "net value" 2 (Simmem.read mem ctx a)

(* Public reads stop at the bump pointer: what lies past it is capacity,
   and capacity must never show. *)
let test_reads_stop_at_extent () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 3 in
  let extent = (Simmem.stats mem).heap_extent in
  Alcotest.(check int) "version inside" 1 (Simmem.version mem a);
  Alcotest.(check int) "line version inside" 3
    (Simmem.line_version mem (Simmem.line_of a));
  Alcotest.(check int) "line writer inside" Sim.boot_tid
    (Simmem.line_writer mem (Simmem.line_of a));
  let raises name f =
    match f () with
    | (_ : int) -> Alcotest.failf "%s past the extent returned a value" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun addr ->
      raises "version" (fun () -> Simmem.version mem addr);
      raises "peek" (fun () -> Simmem.peek mem addr))
    [ extent; extent + 1; 100_000; -1 ];
  let first_free_line = Simmem.line_of (extent + Simmem.line_of 0 + 7) in
  List.iter
    (fun line ->
      raises "line_version" (fun () -> Simmem.line_version mem line);
      raises "line_writer" (fun () -> Simmem.line_writer mem line))
    [ first_free_line; 100_000; -1 ]

(* Without a buffering model there is no store buffer to ask about. *)
let test_unbuffered_drain () =
  let mem, boot = make () in
  let a = Simmem.malloc mem boot 1 in
  Simmem.write mem boot a 5;
  Alcotest.(check int) "boot: nothing pending" 0 (Simmem.pending_stores mem boot);
  Simmem.drain mem boot;
  let seen = ref [] in
  Sim.run ~seed:1
    [|
      (fun ctx ->
        Simmem.write mem ctx a 6;
        let c0 = Sim.clock ctx in
        let p = Simmem.pending_stores mem ctx in
        Simmem.drain mem ctx;
        seen := [ p; Sim.clock ctx - c0; Simmem.peek mem a ]);
    |];
  Alcotest.(check (list int)) "sc thread: nothing pending, drain is free" [ 0; 0; 6 ] !seen

let test_coherence_costs () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 1 in
  Simmem.write mem ctx a 1;
  let t0 = Sim.clock ctx in
  ignore (Simmem.read mem ctx a);
  let hit = Sim.clock ctx - t0 in
  (* A second thread's first read misses. *)
  let miss = ref 0 in
  Sim.run ~seed:1
    [|
      (fun tctx ->
        let t = Sim.clock tctx in
        ignore (Simmem.read mem tctx a);
        miss := Sim.clock tctx - t);
    |];
  Alcotest.(check bool)
    (Printf.sprintf "miss (%d) dearer than hit (%d)" !miss hit)
    true
    (!miss > hit)

let test_line_serialization () =
  (* Misses on one line queue behind each other; misses on distinct lines
     proceed in parallel. *)
  let mem = Simmem.create () in
  let boot = Sim.boot () in
  let shared = Simmem.malloc mem boot 1 in
  (* 17-word blocks with the target at +8 guarantee each target word lives
     on a line no other target shares, whatever the block alignment. *)
  let privs = Array.init 8 (fun _ -> Simmem.malloc mem boot 17 + 8) in
  let finish_shared = Array.make 8 0 and finish_priv = Array.make 8 0 in
  Sim.run ~seed:2
    (Array.init 8 (fun i ->
         fun ctx ->
           Simmem.write mem ctx shared i;
           finish_shared.(i) <- Sim.clock ctx));
  Sim.run ~seed:2
    (Array.init 8 (fun i ->
         fun ctx ->
           Simmem.write mem ctx privs.(i) i;
           finish_priv.(i) <- Sim.clock ctx));
  let m a = Array.fold_left max 0 a in
  Alcotest.(check bool)
    (Printf.sprintf "hot line serializes (%d) vs private lines (%d)" (m finish_shared)
       (m finish_priv))
    true
    (m finish_shared > 3 * m finish_priv)

let test_access_counters () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 1 in
  let s0 = Simmem.stats mem in
  ignore (Simmem.read mem ctx a);
  ignore (Simmem.read mem ctx a);
  Simmem.write mem ctx a 5;
  ignore (Simmem.cas mem ctx a ~expected:5 ~desired:6);
  let s1 = Simmem.stats mem in
  Alcotest.(check int) "reads counted" (s0.reads + 2) s1.reads;
  Alcotest.(check int) "first read missed" (s0.read_misses + 1) s1.read_misses;
  (* write + cas both count as stores; cas also counts as an atomic *)
  Alcotest.(check int) "writes counted" (s0.writes + 2) s1.writes;
  Alcotest.(check int) "atomics counted" (s0.atomics + 1) s1.atomics

(* Per-thread load counts on both sharer-set layouts (16 threads: one
   word per line; 100 threads: two), under a parent registry. Every
   thread loads word [a] three times and word [b], on another line,
   twice through the transactional plane; the boot context then loads
   [a] and stores to it, which invalidates every other copy, and every
   thread loads [a] twice more. A thread misses on its first load of
   each line and on its first load after the store, and hits otherwise:
   seven loads and three misses each. The boot load hits. The parent's
   counters match the heap's. *)
let test_per_thread_read_counts () =
  List.iter
    (fun threads ->
      let parent = Obs.Metrics.create () in
      let mem = Simmem.create ~metrics:parent ~threads () in
      let boot = Sim.boot () in
      let a = Simmem.malloc mem boot 1 in
      let b = Simmem.malloc mem boot 16 + 8 in
      Simmem.write mem boot a 1;
      Simmem.write mem boot b 2;
      let tx_read ctx = ignore (Simmem.Tx_plane.read_ver mem ctx b) in
      Sim.run ~seed:threads
        (Array.make threads (fun ctx ->
             for _ = 1 to 3 do
               ignore (Simmem.read mem ctx a)
             done;
             tx_read ctx;
             tx_read ctx));
      ignore (Simmem.read mem boot a);
      Simmem.write mem boot a 3;
      Sim.run ~seed:threads
        (Array.make threads (fun ctx ->
             ignore (Simmem.read mem ctx a);
             ignore (Simmem.read mem ctx a)));
      let each n = List.init threads (fun tid -> (tid, n)) in
      List.iter
        (fun (name, per) ->
          List.iter
            (fun (where, reg) ->
              let c = Obs.Metrics.counter reg name in
              let label = Printf.sprintf "%d threads: %s %s" threads where name in
              Alcotest.(check (list (pair int int))) label per (Obs.Metrics.per_thread c);
              Alcotest.(check int) (label ^ " total")
                (List.fold_left (fun s (_, n) -> s + n) 0 per)
                (Obs.Metrics.value c))
            [ ("heap", Simmem.metrics mem); ("parent", parent) ])
        [
          ("mem.reads", each 7 @ [ (Sim.boot_tid, 1) ]);
          ("mem.read_misses", each 3);
        ])
    [ 16; 100 ]

let test_tx_plane () =
  let mem, ctx = make () in
  let a = Simmem.malloc mem ctx 1 in
  Simmem.write mem ctx a 42;
  let ver = Simmem.Tx_plane.read_ver mem ctx a in
  if ver < 0 then Alcotest.fail "live read must succeed";
  Alcotest.(check int) "value" 42 (Simmem.Tx_plane.read_value mem);
  Alcotest.(check int) "current version" (Simmem.version mem a) ver;
  let rs = Simmem.Read_set.create mem Simmem.Word in
  Simmem.Read_set.note rs a ver;
  Alcotest.(check bool) "validates" true (Simmem.Read_set.validate rs);
  Simmem.write mem ctx a 43;
  Alcotest.(check bool) "stale after write" false (Simmem.Read_set.validate rs);
  Simmem.free mem ctx a;
  Alcotest.(check int) "freed read returns -1" (-1) (Simmem.Tx_plane.read_ver mem ctx a);
  Alcotest.(check bool) "commit_write to freed fails" false
    (Simmem.Tx_plane.commit_write mem ctx a 1)

(* Property: the allocator agrees with a simple model of live blocks. *)
let prop_allocator_model =
  let gen = QCheck.(list (pair bool (int_range 1 16))) in
  QCheck.Test.make ~name:"allocator matches model" ~count:200 gen (fun script ->
      let mem, ctx = make () in
      let live = Hashtbl.create 16 in
      let next_id = ref 0 in
      List.iter
        (fun (is_alloc, size) ->
          if is_alloc || Hashtbl.length live = 0 then begin
            let b = Simmem.malloc mem ctx size in
            Hashtbl.replace live b size;
            incr next_id
          end
          else begin
            (* free an arbitrary live block *)
            let b, _ = Hashtbl.fold (fun k v _ -> (k, v)) live (0, 0) in
            Simmem.free mem ctx b;
            Hashtbl.remove live b
          end)
        script;
      let expected_words = Hashtbl.fold (fun _ s acc -> acc + s) live 0 in
      let st = Simmem.stats mem in
      st.live_words = expected_words
      && st.live_blocks = Hashtbl.length live
      && Hashtbl.fold (fun b _ acc -> acc && Simmem.is_allocated mem b) live true)

(* Property: the heap's capacity is invisible. A random multi-thread
   program runs on two machines that differ only in [initial_words] —
   one starts at 64 words and grows through every doubling, the other
   never grows — and must see the same values, word versions and faults,
   the same final clocks and the same [stats]: addresses come from the
   bump pointer, never from capacity. Operations name blocks through
   shared slots (or raw addresses, some past the extent), so threads
   read, write, free and reuse each other's blocks, and double frees and
   use-after-free faults are part of what is compared. *)
type cap_op =
  | C_read of int * int
  | C_write of int * int * int
  | C_cas of int * int * int * int
  | C_faa of int * int * int
  | C_malloc of int * int
  | C_free of int
  | C_fence
  | C_version of int * int

let cap_slots = 6

let print_cap_op = function
  | C_read (s, o) -> Printf.sprintf "read %d+%d" s o
  | C_write (s, o, v) -> Printf.sprintf "write %d+%d %d" s o v
  | C_cas (s, o, e, d) -> Printf.sprintf "cas %d+%d %d->%d" s o e d
  | C_faa (s, o, d) -> Printf.sprintf "faa %d+%d %d" s o d
  | C_malloc (s, n) -> Printf.sprintf "malloc %d <- %d words" s n
  | C_free s -> Printf.sprintf "free %d" s
  | C_fence -> "fence"
  | C_version (s, o) -> Printf.sprintf "version %d+%d" s o

let run_capacity ~model ~alloc ~initial_words threads =
  let mem = Simmem.create ~model ~alloc ~threads:3 ~initial_words () in
  let boot = Sim.boot () in
  (* Slot [cap_slots] and above name raw addresses: 8 words apart, out to
     well past any extent these programs reach. *)
  let slots = Array.init cap_slots (fun i -> Simmem.malloc mem boot (1 + i)) in
  let addr s o = if s < cap_slots then slots.(s) + o else (s * 8) + o in
  let log = Array.make (Array.length threads) [] in
  let clocks = Array.make (Array.length threads) 0 in
  let body i ctx =
    let record r = log.(i) <- r :: log.(i) in
    List.iter
      (fun op ->
        match
          match op with
          | C_read (s, o) -> Simmem.read mem ctx (addr s o)
          | C_write (s, o, v) ->
            Simmem.write mem ctx (addr s o) v;
            0
          | C_cas (s, o, expected, desired) ->
            Bool.to_int (Simmem.cas mem ctx (addr s o) ~expected ~desired)
          | C_faa (s, o, d) -> Simmem.fetch_add mem ctx (addr s o) d
          | C_malloc (s, n) ->
            let b = Simmem.malloc mem ctx n in
            if s < cap_slots then slots.(s) <- b;
            b
          | C_free s ->
            Simmem.free mem ctx (addr s 0);
            0
          | C_fence ->
            Sim.fence ctx;
            0
          | C_version (s, o) -> Simmem.version mem (addr s o)
        with
        | v -> record (Ok v)
        | exception Simmem.Fault f -> record (Error (Format.asprintf "%a" Simmem.pp_fault f))
        | exception Invalid_argument m -> record (Error m))
      threads.(i);
    clocks.(i) <- Sim.clock ctx
  in
  Sim.run ~seed:3 (Array.mapi (fun i _ -> body i) threads);
  (log, clocks, Simmem.stats mem)

let prop_capacity_invisible =
  let open QCheck.Gen in
  let slot = int_range 0 (cap_slots + 40) and off = int_range 0 3 and v = int_range 0 3 in
  let op =
    frequency
      [
        (4, map2 (fun s o -> C_read (s, o)) slot off);
        (4, map3 (fun s o x -> C_write (s, o, x)) slot off v);
        (2, map3 (fun (s, o) e d -> C_cas (s, o, e, d)) (pair slot off) v v);
        (2, map3 (fun s o d -> C_faa (s, o, d)) slot off v);
        (3, map2 (fun s n -> C_malloc (s, n)) (int_range 0 (cap_slots - 1)) (int_range 1 40));
        (2, map (fun s -> C_free s) slot);
        (1, return C_fence);
        (2, map2 (fun s o -> C_version (s, o)) slot off);
      ]
  in
  let prog = array_size (int_range 1 3) (list_size (int_range 0 25) op) in
  let print p =
    String.concat " || "
      (Array.to_list (Array.map (fun l -> String.concat "; " (List.map print_cap_op l)) p))
  in
  QCheck.Test.make ~name:"heap capacity is invisible" ~count:60 (QCheck.make ~print prog)
    (fun threads ->
      List.for_all
        (fun (model, alloc) ->
          run_capacity ~model ~alloc ~initial_words:64 threads
          = run_capacity ~model ~alloc ~initial_words:65536 threads)
        [
          (Sim.Memmodel.sc, Simmem.Shared_lifo);
          (Sim.Memmodel.sb, Simmem.Shared_lifo);
          (Sim.Memmodel.sc, Simmem.Arena Simmem.Line_isolated);
          (Sim.Memmodel.sb, Simmem.Arena Simmem.Line_isolated);
        ])

(* Property: the shared transactional read set gives exactly the answers
   of a naive one — an assoc list in first-read order, fully rescanned on
   every query — on a live heap whose words are committed, written,
   CASed, freed and reallocated between queries. The read set keeps one
   entry per note; the oracle keeps first reads only, so every step also
   checks that re-reads change neither [validate] nor [first_invalid],
   and that [distinct] counts the oracle's entries. Random op streams
   re-read words (some right after a committed store to them) and cross
   array growth, and resets exercise the generation-stamped index behind
   [distinct]; both conflict planes are checked. *)
type rs_op = Note | Commit | Write | Cas_ok | Cas_fail | Toggle | Reset

let rs_op_label = function
  | Note -> "note"
  | Commit -> "commit"
  | Write -> "write"
  | Cas_ok -> "cas"
  | Cas_fail -> "cas-fail"
  | Toggle -> "free/malloc"
  | Reset -> "reset"

let prop_read_set_exact =
  let nblocks = 20 and bwords = 10 in
  (* A step is one op, or a read, a committed store and a re-read of
     one word. *)
  let step =
    QCheck.Gen.(
      int_range 0 ((nblocks * bwords) - 1) >>= fun i ->
      frequency
        [
          (250, return [ (Note, i) ]); (20, return [ (Commit, i) ]);
          (20, return [ (Write, i) ]); (10, return [ (Cas_ok, i) ]);
          (10, return [ (Cas_fail, i) ]); (15, return [ (Toggle, i) ]);
          (10, return [ (Note, i); (Commit, i); (Note, i) ]); (1, return [ (Reset, i) ]);
        ])
  in
  let print_op (k, i) = Printf.sprintf "%s %d" (rs_op_label k) i in
  let arb =
    QCheck.make
      ~print:QCheck.Print.(list print_op)
      ~shrink:QCheck.Shrink.list
      QCheck.Gen.(map List.concat (list_size (int_range 1 600) step))
  in
  let run gran script =
    let mem, ctx = make () in
    let bases = Array.init nblocks (fun _ -> Simmem.malloc mem ctx bwords) in
    let live = Array.make nblocks true in
    let block_of base =
      let r = ref (-1) in
      Array.iteri (fun b x -> if x = base then r := b) bases;
      !r
    in
    let addr_of i = bases.(i / bwords) + (i mod bwords) in
    let version a =
      match gran with
      | Simmem.Word -> Simmem.version mem a
      | Simmem.Line -> Simmem.line_version mem (Simmem.line_of a)
    in
    let rs = Simmem.Read_set.create mem gran in
    let oracle = ref [] in
    let oracle_first_invalid () =
      match List.find_opt (fun (a, v) -> version a <> v) (List.rev !oracle) with
      | Some (a, _) -> a
      | None -> -1
    in
    let ok = ref true in
    let expect b = if not b then ok := false in
    let check_validate () =
      let expected = oracle_first_invalid () in
      expect (Simmem.Read_set.validate rs = (expected < 0));
      expect (Simmem.Read_set.first_invalid rs = expected)
    in
    List.iter
      (fun (k, i) ->
        let a = addr_of i in
        let b = i / bwords in
        let allocated = Simmem.is_allocated mem a in
        (match k with
         | Note ->
           Simmem.Read_set.note rs a (Simmem.version mem a);
           if not (List.mem_assoc a !oracle) then oracle := (a, version a) :: !oracle
         | Reset ->
           Simmem.Read_set.reset rs;
           oracle := []
         | Toggle when live.(b) ->
           Simmem.free mem ctx bases.(b);
           live.(b) <- false
         | Toggle ->
           (* same-size LIFO reuse hands back one of our freed bases *)
           let base = Simmem.malloc mem ctx bwords in
           live.(block_of base) <- true
         | (Commit | Write | Cas_ok | Cas_fail) when not allocated -> ()
         | Commit -> ignore (Simmem.Tx_plane.commit_write mem ctx a (i + 1))
         | Write -> Simmem.write mem ctx a (i + 2)
         | Cas_ok ->
           let cur = Simmem.peek mem a in
           ignore (Simmem.cas mem ctx a ~expected:cur ~desired:(cur + 1))
         | Cas_fail ->
           let cur = Simmem.peek mem a in
           ignore (Simmem.cas mem ctx a ~expected:(cur + 1) ~desired:0));
        check_validate ();
        expect (Simmem.Read_set.distinct rs = List.length !oracle))
      script;
    let firsts = ref [] in
    for j = 0 to Simmem.Read_set.length rs - 1 do
      let a = Simmem.Read_set.addr rs j in
      if not (List.mem a !firsts) then firsts := a :: !firsts
    done;
    expect (!firsts = List.map fst !oracle);
    !ok
  in
  QCheck.Test.make ~name:"read set agrees with a naive rescanning oracle" ~count:300 arb
    (fun script -> run Simmem.Word script && run Simmem.Line script)

(* A parent registry lists metrics in first-registration order, so the
   order a heap registers its [mem.*] metrics in is visible in every
   snapshot and [--metrics] dump. *)
let test_metric_registration_order () =
  let parent = Obs.Metrics.create () in
  let _mem = Simmem.create ~metrics:parent () in
  Alcotest.(check (list string))
    "registration order"
    [
      "mem.queue_wait"; "mem.live_blocks"; "mem.live_words"; "mem.frees"; "mem.allocs";
      "mem.atomics"; "mem.write_misses"; "mem.writes"; "mem.read_misses"; "mem.reads";
    ]
    (List.map fst (Obs.Metrics.snapshot parent))

let () =
  Alcotest.run "simmem"
    [
      ( "allocator",
        [
          Alcotest.test_case "malloc zeroed" `Quick test_malloc_zeroed;
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "reuse same size" `Quick test_reuse_same_size;
          Alcotest.test_case "reuse zeroes" `Quick test_reuse_zeroes;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "shared-lifo extent" `Quick test_shared_extent;
          Alcotest.test_case "arena extents" `Quick test_arena_extents;
          Alcotest.test_case "block size" `Quick test_block_size;
          Alcotest.test_case "reads stop at the extent" `Quick test_reads_stop_at_extent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "null" `Quick test_null_fault;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "invalid free" `Quick test_invalid_free;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "versions" `Quick test_versions;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "fetch_add" `Quick test_fetch_add;
          Alcotest.test_case "unbuffered drain" `Quick test_unbuffered_drain;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "hit vs miss" `Quick test_coherence_costs;
          Alcotest.test_case "line serialization" `Quick test_line_serialization;
        ] );
      ( "counters",
        [
          Alcotest.test_case "access counters" `Quick test_access_counters;
          Alcotest.test_case "per-thread read counts" `Quick test_per_thread_read_counts;
          Alcotest.test_case "metric registration order" `Quick
            test_metric_registration_order;
        ] );
      ("tx plane", [ Alcotest.test_case "read/validate/commit" `Quick test_tx_plane ]);
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_allocator_model;
          QCheck_alcotest.to_alcotest prop_read_set_exact;
          QCheck_alcotest.to_alcotest prop_capacity_invisible;
        ] );
    ]
