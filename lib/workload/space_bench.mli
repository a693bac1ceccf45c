(** Quiescent-space measurements backing the paper's §1.1/§1.2 claims:
    peak vs. residual allocator footprint for queues (grow then drain) and
    collect objects (register then deregister everything). *)

type result = {
  subject : string;
  peak_words : int;  (** allocator peak while the structure was in use *)
  quiescent_words : int;  (** still live after drain/deregister-all *)
}

val queue_cells : ?peak_len:int -> ?seed:int -> unit -> result Runner.Cell.t list
val collect_cells : ?peak:int -> ?seed:int -> unit -> result Runner.Cell.t list
val to_table : title:string -> result list -> Obs.Table.table
