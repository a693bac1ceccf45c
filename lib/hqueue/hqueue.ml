(** Concurrent FIFO queues (paper §1.1): the HTM queue and the two
    Michael-Scott configurations it is compared against in Figure 1. *)

module Intf = Queue_intf
module Htm_queue = Htm_queue
module Ms_core = Ms_core
module Ms_queue = Ms_queue
module Ms_rop_queue = Ms_rop_queue
module Ms_collect_queue = Ms_collect_queue
module Ms_epoch_queue = Ms_epoch_queue

(** The three queues of the paper's Figure 1. *)
let all : Queue_intf.maker list = [ Htm_queue.maker; Ms_queue.maker; Ms_rop_queue.maker ]

(** Beyond the paper: Michael-Scott reclaimed through a Dynamic Collect
    object (the §1.2 connection made concrete). *)
let extensions : Queue_intf.maker list = [ Ms_collect_queue.maker ]

let all_with_extensions = all @ extensions

(** Michael-Scott under epoch-based reclamation — the modern
    quiescence-style competitor the allocator study ([bench placement])
    sweeps beside ROP and HTM. Deliberately {e not} in {!extensions}:
    every sweep built over {!all_with_extensions} (chaos, the explore
    smoke over all queues, the property suites) feeds a committed
    baseline or a pinned scenario list, and those stay byte-identical;
    the EBR cells live in the experiments that opt in by name. *)
let ebr : Queue_intf.maker = Ms_epoch_queue.maker

let find_maker name =
  List.find_opt
    (fun (m : Queue_intf.maker) -> String.equal m.queue_name name)
    (all_with_extensions @ [ ebr ])
