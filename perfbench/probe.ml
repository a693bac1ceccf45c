(* Host-side measurement around the calls the benchmark makes into each
   layer: a monotonic clock, snapshots of the counters the layers already
   expose, and (when tracing) an in-memory span log.

   Spans are recorded only here, around public calls ([Driver.machine] /
   [Simmem.create], [maker.make], prefill, [Sim.run], the check and
   [destroy]); nothing inside the library is instrumented. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Every counter a layer exposes that the benchmark reads. *)
type counters = {
  switches : int;  (** [Sim.yield_count] *)
  reads : int;
  read_misses : int;
  writes : int;
  write_misses : int;
  atomics : int;
  allocs : int;
  frees : int;
  remote_frees : int;
  hw_attempts : int;
  hw_commits : int;
  stm_attempts : int;
  stm_commits : int;
  minor_words : float;  (** [Gc.minor_words] *)
}

let zero =
  { switches = 0; reads = 0; read_misses = 0; writes = 0; write_misses = 0;
    atomics = 0; allocs = 0; frees = 0; remote_frees = 0; hw_attempts = 0;
    hw_commits = 0; stm_attempts = 0; stm_commits = 0; minor_words = 0. }

let snapshot mem htm =
  let c = { zero with switches = !Sim.yield_count; minor_words = Gc.minor_words () } in
  let c =
    match mem with
    | None -> c
    | Some mem ->
        let s = Simmem.stats mem in
        { c with reads = s.reads; read_misses = s.read_misses; writes = s.writes;
          write_misses = s.write_misses; atomics = s.atomics; allocs = s.total_allocs;
          frees = s.total_frees; remote_frees = s.remote_frees }
  in
  match htm with
  | None -> c
  | Some htm ->
      let h = Htm.stats htm in
      { c with hw_attempts = h.attempts_hw; hw_commits = h.commits;
        stm_attempts = h.attempts_stm; stm_commits = h.stm_commits }

let map2 f g a b =
  { switches = f a.switches b.switches; reads = f a.reads b.reads;
    read_misses = f a.read_misses b.read_misses; writes = f a.writes b.writes;
    write_misses = f a.write_misses b.write_misses; atomics = f a.atomics b.atomics;
    allocs = f a.allocs b.allocs; frees = f a.frees b.frees;
    remote_frees = f a.remote_frees b.remote_frees;
    hw_attempts = f a.hw_attempts b.hw_attempts; hw_commits = f a.hw_commits b.hw_commits;
    stm_attempts = f a.stm_attempts b.stm_attempts;
    stm_commits = f a.stm_commits b.stm_commits;
    minor_words = g a.minor_words b.minor_words }

let diff after before = map2 ( - ) ( -. ) after before
let add = map2 ( + ) ( +. )

(* Simulated memory accesses: reads, writes, atomics, allocs and frees. *)
let accesses c = c.reads + c.writes + c.atomics + c.allocs + c.frees

type phase = Setup | Run | Teardown

let phase_of = function
  | "machine" | "make" | "prefill" -> Setup
  | "run" -> Run
  | _ -> Teardown

type span = {
  sp_name : string;
  sp_cell : string;  (** the enclosing cell: every span's parent *)
  sp_round : int;
  sp_start : int;  (** ns, monotonic *)
  sp_dur : int;  (** ns *)
  sp_delta : counters;
}

type t = {
  tracing : bool;
  mutable spans : span list;  (** newest first *)
  mutable round : int;
  mutable cell : string;
  mutable mem : Simmem.t option;
  mutable htm : Htm.t option;
  phase_ns : int array;  (** this cell's time per phase, by [phase_index] *)
  mutable run_delta : counters;
}

let create ~tracing =
  { tracing; spans = []; round = 0; cell = ""; mem = None; htm = None;
    phase_ns = Array.make 3 0; run_delta = zero }

let phase_index = function Setup -> 0 | Run -> 1 | Teardown -> 2

let start_cell p label =
  p.cell <- label;
  p.mem <- None;
  p.htm <- None;
  Array.fill p.phase_ns 0 3 0;
  p.run_delta <- zero

(* Counters are read from the cell's machine once it exists. *)
let attach p mem htm =
  p.mem <- Some mem;
  p.htm <- Some htm

(* Time [f] and charge it to its phase. The counters are read outside the
   timed interval: around every call when tracing, and around [Sim.run]
   always (the end-to-end metrics need its access count). *)
let span p name f =
  let phase = phase_of name in
  let counted = p.tracing || phase = Run in
  let before = if counted then snapshot p.mem p.htm else zero in
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  let i = phase_index phase in
  p.phase_ns.(i) <- p.phase_ns.(i) + dt;
  if counted then begin
    let delta = diff (snapshot p.mem p.htm) before in
    if phase = Run then p.run_delta <- add p.run_delta delta;
    if p.tracing then
      p.spans <-
        { sp_name = name; sp_cell = p.cell; sp_round = p.round; sp_start = t0;
          sp_dur = dt; sp_delta = delta }
        :: p.spans
  end;
  r

let phase_ns p ph = p.phase_ns.(phase_index ph)

(* The spans as a Chrome trace (chrome://tracing, Perfetto): one complete
   event per span, one track per round, the counter deltas as args. *)
let to_json spans =
  let open Obs.Json in
  let t0 = List.fold_left (fun acc s -> min acc s.sp_start) max_int spans in
  let event s =
    let d = s.sp_delta in
    Obj
      [ ("name", Str s.sp_name); ("cat", Str "layer"); ("ph", Str "X");
        ("ts", Float (float_of_int (s.sp_start - t0) /. 1e3));
        ("dur", Float (float_of_int s.sp_dur /. 1e3)); ("pid", Int 0);
        ("tid", Int s.sp_round);
        ( "args",
          Obj
            [ ("parent", Str s.sp_cell); ("switches", Int d.switches);
              ("accesses", Int (accesses d)); ("hw_attempts", Int d.hw_attempts);
              ("stm_attempts", Int d.stm_attempts);
              ("minor_words", Float d.minor_words) ] ) ]
  in
  Obj [ ("traceEvents", List (List.rev_map event spans)) ]
