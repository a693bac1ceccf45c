(** Growable buffer of unboxed integers.

    Used as the result set of [Collect] operations: appending must be cheap
    and allocation-free in the common case so that buffer management does not
    distort the virtual-time accounting of the algorithms under test. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val add : t -> int -> unit
val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds access. *)

val pop : t -> int
(** Remove and return the last element.
    @raise Invalid_argument if the buffer is empty. *)

val filter_in_place : (int -> bool) -> t -> unit
(** Keep only the elements satisfying the predicate, in their order. *)

val clear : t -> unit
(** Reset length to zero, keeping storage. *)

val reset_to : t -> int -> unit
(** [reset_to t n] drops all but the first [n] elements. Used by collect
    algorithms that restart mid-operation (e.g. FastCollect).
    @raise Invalid_argument if [n] exceeds the current length. *)

val to_list : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
