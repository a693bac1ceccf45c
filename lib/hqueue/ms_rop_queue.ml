type t = {
  mem : Simmem.t;
  hz : int; (* announcement array: hazards_per_thread words per slot *)
  num_threads : int;
  scan_threshold : int;
  retired : Ms_core.stacks; (* per-thread retired-but-not-yet-free nodes *)
  (* per-thread scan scratch: snapshot of the hazard array. Must be
     per-thread: the snapshot reads yield, so two in-flight scans would
     clobber a shared buffer. *)
  snapshots : Ms_core.stacks;
}

let hazards_per_thread = 2

let init ?scan_threshold htm _ ~num_threads ~hdr:_ ~array =
  let nslots = hazards_per_thread * (num_threads + 1) in
  let mem = Htm.mem htm in
  {
    mem;
    hz = array;
    num_threads;
    scan_threshold = Option.value scan_threshold ~default:((2 * nslots) + 2);
    retired = Ms_core.stacks (Simmem.slots mem);
    snapshots = Ms_core.stacks (Simmem.slots mem);
  }

let mem r = r.mem

let store r ctx i node =
  let slot = Ms_core.slot_index ~num_threads:r.num_threads ctx in
  Simmem.write r.mem ctx (r.hz + (hazards_per_thread * slot) + i) node

(* An announcement must be globally visible before the validating re-read,
   which requires a store-load fence (membar #StoreLoad on SPARC). This
   fence, paid on every traversal step, is the heart of the 35–75 %
   overhead the paper measures for ROP-style reclamation. [Sim.fence]
   drains the thread's store buffer under a weak memory model — without
   it, the announcement can sit invisible in the buffer while a reclaimer
   scans, misses it, and frees the node (the `ms-nofence` mutant in
   lib/explore demonstrates exactly that). Under [sc] it is a pure
   [fence_cost] tick. *)
let fence_cost = 60

let protect r ctx i node =
  store r ctx i node;
  Sim.fence ~cost:fence_cost ctx

let exit r ctx ~slots =
  for i = 0 to slots - 1 do
    protect r ctx i 0
  done

(* Free every retired node not currently announced by anyone. One snapshot
   of the hazard array (each slot read once, paying its coherence cost),
   then pure membership scans. *)
let scan r ctx retired =
  let snap = Ms_core.stack r.snapshots (Simmem.slot r.mem (Sim.tid ctx)) in
  Sim.Ibuf.clear snap;
  for i = 0 to (hazards_per_thread * (r.num_threads + 1)) - 1 do
    Sim.Ibuf.add snap (Simmem.read r.mem ctx (r.hz + i))
  done;
  Ms_core.reclaim r.mem ctx ~keep:(Ms_core.announced snap) retired

let retire r ctx node =
  let retired = Ms_core.stack r.retired (Simmem.slot r.mem (Sim.tid ctx)) in
  Sim.Ibuf.add retired node;
  if Sim.Ibuf.length retired >= r.scan_threshold then scan r ctx retired

let drain r ctx = Ms_core.free_stacks r.mem ctx r.retired

let reclaimer =
  { Ms_core.defaults with
    label = Some "MSQueue+ROP";
    array = Some ("hazards", fun num_threads -> hazards_per_thread * (num_threads + 1));
    protect;
    validates = true;
    exit;
    retire;
    drain }

let maker = Ms_core.maker "MichaelScott+ROP" reclaimer (fun htm -> init htm)
