(** Coherence-contention profiler: per-cache-line transfer accounting
    with region attribution.

    The simulated memory reports every coherence transfer (a read or
    write miss that pulled the line from another core, plus the cycles
    the requester spent queued behind earlier transfers of the same
    line). Data-structure implementations {!label} the address ranges
    they allocate ("ListHoHRC.header", "MSQueue+ROP.node", ...), and the
    report attributes each hot line to the regions overlapping it at
    report time.

    A line overlapped by more than one region name is rendered with the
    names joined by [" + "] — a direct false-sharing indicator.

    Recording is a hashtable update on the OCaml side: zero virtual
    cycles, no simulator RNG. *)

type t

val create : ?line_shift:int -> unit -> t
(** [line_shift] must match the memory's line size (default 3:
    8-word lines). *)

val label : t -> name:string -> base:int -> words:int -> unit
(** Declare that words [\[base, base+words)] belong to region [name].
    Labels accumulate per cache line and are deduplicated, so allocation
    hot loops can label every block unconditionally. Freeing is not
    tracked — a label describes what the line was {e used as}, which is
    what a post-mortem wants; a line used by several regions over its
    lifetime reports all their names. *)

val record_transfer :
  t -> line:int -> wait:int -> cost:int -> sharers:int -> unit
(** One coherence transfer of [line]: [wait] cycles spent queued behind
    earlier transfers, [cost] total cycles charged for the miss,
    [sharers] the number of caches holding the line at request time. *)

type line_stat = {
  ls_line : int;          (** line index *)
  ls_region : string;     (** attributed region name(s), ["?"] if unlabeled *)
  ls_transfers : int;     (** coherence transfers of this line *)
  ls_cycles : int;        (** total miss cycles charged on this line *)
  ls_wait : int;          (** of which: queueing behind other transfers *)
  ls_max_sharers : int;   (** peak sharer count seen at request time *)
}

val lines : ?top:int -> t -> line_stat list
(** Hottest lines, sorted by transfer count (descending; ties by line
    index ascending). [top] truncates (default: all). *)

val regions : t -> (string * int * int) list
(** [(region, transfers, cycles)] aggregated over lines, sorted by
    transfers descending (ties by name). *)

val total_transfers : t -> int

val print : ?top:int -> Format.formatter -> t -> unit
(** Ranked heatmap table: line, region, transfers, cycles, wait, peak
    sharers; then the per-region rollup. *)
