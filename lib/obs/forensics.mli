(** Transaction forensics: conflict-witness aggregation and abort
    attribution.

    A {e witness} is captured by the memory system at the moment a
    coherence invalidation (or version-check failure) dooms a
    transaction: who was the victim, which thread's committed write was
    the aggressor, which address and line they collided on, and whether
    the victim had the line in its read- or write-set. Aggregating
    witnesses answers the questions raw abort counters cannot: {e which
    threads} fight, over {e which lines}, belonging to {e which}
    labelled region and produced by {e which} allocation.

    Like the tracer and profiler, forensics is pure OCaml-side
    bookkeeping: recording charges zero virtual cycles, consumes no
    simulator RNG and never perturbs scheduling, so an instrumented run
    is cycle-for-cycle identical to a bare one.

    All accessors return canonically sorted data and {!to_json} is
    deterministic, so artifacts built from forensics merged in a fixed
    (canonical) cell order are byte-identical regardless of host
    parallelism. *)

type witness = {
  w_victim : int;  (** aborting thread *)
  w_aggressor : int;  (** thread whose write invalidated it; -1 unknown *)
  w_addr : int;  (** conflicting word address *)
  w_line : int;  (** the line of [w_addr] (8-word lines) *)
  w_victim_wrote : bool;  (** true: W/W conflict; false: R/W *)
  w_read_set : bool;  (** address was in the victim's read-set *)
  w_write_set : bool;  (** address was in the victim's write-set *)
  w_op : string;  (** aggressor op: store/atomic/commit/malloc/free/lock/? *)
  w_aggressor_clock : int;  (** aggressor's clock at its write; -1 unknown *)
  w_clock : int;  (** victim's virtual clock at capture *)
  w_site : string;  (** capture site, e.g. "htm.read", "stm.commit" *)
}

val pp_witness : Format.formatter -> witness -> unit
(** One-line rendering: [t3<-t1 W/W 0x128 (commit ws)]. *)

type hop = {
  hp_tid : int;
  hp_clock : int;
  hp_from : string;  (** path left: "hw" | "stm" *)
  hp_to : string;  (** path entered: "stm" | "tle" *)
  hp_reason : string;
  hp_witness : witness option;  (** the abort that drove the hop *)
}

type t

val create : ?max_hops:int -> unit -> t
(** A forensics aggregator for a memory of 8-word lines; [max_hops]
    bounds the stored escalation timeline (default 256) — the total is
    still counted past the bound. *)

(** {1 Recording} *)

val label : t -> name:string -> base:int -> words:int -> unit
(** Name the lines covering [\[base, base+words)], for {!lines}.
    Multiple distinct names on one line are all kept (false sharing). *)

val note_alloc : t -> base:int -> words:int -> tid:int -> clock:int -> unit
(** Record allocation provenance for the covered lines: which thread
    allocated into them, when, and how many times over the run. *)

val record : t -> witness -> unit

val note_hop :
  t ->
  tid:int ->
  clock:int ->
  from_path:string ->
  to_path:string ->
  reason:string ->
  witness option ->
  unit
(** One escalation step in a transaction's fallback lattice. *)

(** {1 Aggregates}

    All lists are canonically sorted (counts descending, then key
    ascending — except {!edges} and {!victims}, which sort by id). *)

val count : t -> int
(** Witnesses recorded. *)

type edge_stat = {
  es_victim : int;
  es_aggressor : int;  (** -1 = unknown *)
  es_rw : int;
  es_ww : int;
}

val edges : t -> edge_stat list
(** The thread×thread conflict graph, sorted victim then aggressor. *)

type line_stat = {
  fl_line : int;
  fl_addr : int;  (** line base address *)
  fl_region : string;  (** label(s), " + "-joined; "?" if unlabelled *)
  fl_prov : (int * int * int) option;
      (** allocator provenance at last conflict: tid, clock, alloc count *)
  fl_conflicts : int;
  fl_rw : int;
  fl_ww : int;
}

val lines : ?top:int -> t -> line_stat list
(** Hot-line ranking: conflicts descending, line ascending. *)

val regions : t -> (string * int) list
(** Conflicts summed per region label, descending. *)

val sites : t -> (string * int) list
(** Witnesses per capture site, descending. *)

val victims : t -> (int * int) list
(** Witnesses per victim thread, ascending tid. *)

val hops : t -> hop list
(** Stored escalation timeline, oldest first (at most [max_hops]). *)

val hop_count : t -> int
(** Total hops noted, including any past the storage bound. *)

(** {1 Merge and render} *)

val absorb : t -> t -> unit
(** [absorb dst src] folds [src]'s aggregates into [dst]: counts add,
    labels union, provenance takes [src]'s when present, hop timelines
    concatenate under [dst]'s bound. Absorbing in canonical cell order
    makes the result independent of host scheduling. *)

val print : ?top:int -> Format.formatter -> t -> unit
(** Human-readable diagnosis: conflict graph, hot lines (with region and
    provenance), abort sites, escalation timeline — via {!Table}. *)

val to_json : ?top:int -> t -> Json.t
(** Deterministic [{schema: "forensics/1", ...}] object; [top] bounds
    the hot-line list (default 64). *)
