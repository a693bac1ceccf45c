(** Systematic schedule exploration over the deterministic simulator.

    The pieces, bottom-up:

    - {!Lin}: history recording + Wing–Gong linearizability checking for
      the FIFO queues;
    - {!Trace}: pretty-printed interleaving capture, a sink of the
      machine's event stream;
    - {!Mutant}: the deliberately broken ROP queues used to validate that
      the explorer actually finds bugs;
    - {!Litmus}: memory-model litmus programs (SB/MP/LB/CoRR) with an
      exhaustive schedule enumerator;
    - {!Scenario}: programs + oracles packaged as pure functions of
      (strategy, seed, fault plan);
    - {!Shrink}: ddmin over deviation lists;
    - {!Artifact}: self-contained, replayable failure files;
    - {!Search}: the driver enumerating schedules and packaging
      violations.

    See [docs/EXPLORATION.md] for the operational story and
    [bin/explore.ml] for the CLI. *)

module Lin = Lin
module Trace = Trace
module Mutant = Mutant
module Litmus = Litmus
module Scenario = Scenario
module Shrink = Shrink
module Artifact = Artifact
module Search = Search
