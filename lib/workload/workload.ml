(** Benchmark drivers reproducing every table and figure of the paper's
    evaluation (§5), plus the space measurements backing the §1 claims.
    Each module runs a workload on the simulated machine and renders a
    {!Obs.Table.table}; [bench/main.ml] is the command-line front end. *)

module Driver = Driver
module Queue_bench = Queue_bench
module Latency = Latency
module Collect_dominated = Collect_dominated
module Collect_cell = Collect_cell
module Collect_update = Collect_update
module Collect_dereg = Collect_dereg
module Phased = Phased
module Space_bench = Space_bench
module Scale_bench = Scale_bench
module Placement_bench = Placement_bench
module Chaos_bench = Chaos_bench
module Fallback_bench = Fallback_bench
module Memorder_bench = Memorder_bench
