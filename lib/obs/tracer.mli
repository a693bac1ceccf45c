(** Virtual-time event tracer with Chrome [trace_event] export.

    A tracer is one bounded ring buffer of timeline events — spans
    (thread run slices, transaction attempts, TLE lock sections) and
    instants (aborts, cache-line misses, fault injections) — stamped with
    virtual-cycle timestamps taken from the simulator clocks. Recording
    is pure OCaml-side bookkeeping: it charges {e zero virtual cycles},
    consumes no simulator RNG draws and never forces exploring mode, so
    a traced run is cycle-for-cycle identical to an untraced one.

    Multiple simulated machines can share one tracer: each attaches as a
    {!process} (a [pid] in the exported trace), so a benchmark sweep
    renders as one Perfetto session with one process per machine and one
    track per simulated thread.

    When the ring fills, the {e oldest} events are overwritten — a
    post-mortem keeps the most recent window — and the export records how
    many were dropped. Export order and content are deterministic in the
    event sequence, so byte-comparing two exported files is a valid
    schedule-determinism check.

    Timestamps ([ts], [dur]) are virtual cycles written as integers into
    the trace_event microsecond fields: open the file in Perfetto
    (https://ui.perfetto.dev) and read "µs" as "simulated cycles". *)

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity in events (default 262144). *)

type sink
(** A process-scoped handle: the tracer plus the [pid] under which a
    machine's events are filed. *)

val process : t -> name:string -> sink
(** Attach a new process (pid = attachment order, from 1) named [name] in
    the exported timeline. *)

val span :
  sink ->
  tid:int ->
  name:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  int ->
  int ->
  unit
(** [span sink ~tid ~name t0 t1]: a complete slice [\[t0, t1)] on thread
    [tid] (trace_event ph ["X"]). *)

val instant :
  sink ->
  tid:int ->
  name:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  int ->
  unit
(** [instant sink ~tid ~name t]: a point event at virtual time [t]
    (ph ["i"], thread scope). *)

(** {1 Flow events}

    Chrome-trace flows draw an arrow between two points on different
    tracks sharing an [id] — here, from an aggressor thread's committed
    write to the victim abort it caused. Ids come from {!flow_id}, a
    deterministic per-tracer counter. *)

val flow_id : sink -> int
(** Next flow-correlation id (1, 2, ...) — the counter is per-tracer, so
    ids are unique across all attached processes. *)

val flow_start :
  sink ->
  tid:int ->
  name:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  id:int ->
  int ->
  unit
(** Flow arrow tail (ph ["s"]) at virtual time [t] on thread [tid]. *)

val flow_finish :
  sink ->
  tid:int ->
  name:string ->
  ?cat:string ->
  ?args:(string * Json.t) list ->
  id:int ->
  int ->
  unit
(** Flow arrow head (ph ["f"], binding point ["e"]); pair with the
    {!flow_start} carrying the same [id]. *)

val thread_name : sink -> tid:int -> string -> unit
(** Label thread [tid]'s track; kept outside the ring (never dropped) and
    deduplicated, so re-labelling across runs is free. *)

val recorded : t -> int
(** Total events ever recorded (including overwritten ones). *)

val dropped : t -> int
(** Events overwritten so far ([max 0 (recorded - capacity)]). *)

val to_json : t -> Json.t
(** The Chrome trace object: [{traceEvents: [...], displayTimeUnit,
    otherData}]. Metadata events (process/thread names, plus a
    ["tracer.dropped"] record whenever the ring overwrote events) come
    first, ring events follow oldest-first. *)

val write_file : t -> string -> unit
