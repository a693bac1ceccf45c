(* The library's one interface ([simmem.mli]) over its files: the heap
   core, the allocator and the observer sinks at the top level, and the
   transaction layer that {!Htm} and {!Stm} share as submodules. *)

include Heap
include Alloc
include Sinks
module Txn = Txn

type granularity = Read_set.granularity = Word | Line

module Read_set = Read_set
module Tx_desc = Tx_desc
