(** The known-bad queues the explorer is validated against, each the
    Michael-Scott + ROP reclaimer with one seeded defect. Test-only: neither
    is in the [Hqueue] registry. *)

val maker : Hqueue.Intf.maker
(** BrokenROP: the reclamation {e wait} removed — dequeued nodes are freed
    immediately instead of being retired until no announcement covers
    them. Failures manifest as [Simmem.Fault] (use-after-free on a node a
    preempted reader still holds) or as a non-linearizable history (ABA
    through eager block reuse). Broken under every memory model. *)

val nofence_maker : Hqueue.Intf.maker
(** NoFenceROP: the membar #StoreLoad after each hazard announcement
    dropped; retirement and scanning intact (scan threshold 1 so the bug
    is reachable in small scenarios). Correct under [sc]; under a
    buffered model ([sb]) a reclaimer's scan can miss an announcement
    still sitting in the announcing thread's store buffer and free the
    node it covers — the ordering violation the fence exists to prevent. *)
