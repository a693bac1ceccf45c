(** Static baseline (paper §3.3): a fixed array with threads statically
    mapped to slot ranges. No synchronisation at all — registration writes
    a value into one of the calling thread's own slots, deregistration
    writes the null value 0, and collect scans the whole array with plain
    loads, returning the non-null values it sees.

    This does {e not} solve the Dynamic Collect problem (the bound and the
    thread mapping are fixed); the paper uses it purely to put the dynamic
    algorithms' performance in context, and so do we. *)

type t = {
  htm : Htm.t;
  arr : int;
  capacity : int;
  slots_per_thread : int;
  free_slots : int list array; (* per-thread stack of this thread's free slot indices *)
}

let create htm ctx (cfg : Collect_intf.cfg) =
  let capacity = max 1 cfg.max_slots in
  let num_threads = max 1 cfg.num_threads in
  let slots_per_thread = max 1 (capacity / num_threads) in
  let mem = Htm.mem htm in
  let arr = Simmem.malloc mem ctx capacity in
  Simmem.label mem ~name:"StaticArray.slots" ~base:arr ~words:capacity;
  (* One stack per thread the heap tracks ({!Simmem.slots}); the last
     is the boot contexts', mapped like {!Sim.boot_tid}. *)
  let boot_slot = Simmem.slots mem - 1 in
  let free_slots =
    Array.init (Simmem.slots mem) (fun i ->
        let tid = if i = boot_slot then Sim.boot_tid else i in
        let base = tid * slots_per_thread in
        if base + slots_per_thread > capacity then []
        else List.init slots_per_thread (fun i -> base + i))
  in
  { htm; arr; capacity; slots_per_thread; free_slots }

let register t ctx v =
  if v = 0 then invalid_arg "Static_baseline.register: 0 is the null value";
  let mem = Htm.mem t.htm in
  let own = Simmem.slot mem (Sim.tid ctx) in
  match t.free_slots.(own) with
  | [] -> raise (Collect_intf.Capacity_exceeded "StaticBaseline")
  | i :: rest ->
    t.free_slots.(own) <- rest;
    let slot = t.arr + i in
    Simmem.write mem ctx slot v;
    slot

let update t ctx slot v = Simmem.write (Htm.mem t.htm) ctx slot v

let deregister t ctx slot =
  let mem = Htm.mem t.htm in
  let own = Simmem.slot mem (Sim.tid ctx) in
  Simmem.write mem ctx slot 0;
  t.free_slots.(own) <- (slot - t.arr) :: t.free_slots.(own)

let collect t ctx buf =
  let mem = Htm.mem t.htm in
  for i = 0 to t.capacity - 1 do
    let v = Simmem.read mem ctx (t.arr + i) in
    if v <> 0 then Sim.Ibuf.add buf v
  done

let destroy t ctx = Simmem.free (Htm.mem t.htm) ctx t.arr

let maker : Collect_intf.maker =
  {
    algo_name = "StaticBaseline";
    solves_dynamic = false;
    uses_htm = false;
    direct_update = true;
    make =
      (fun htm ctx cfg ->
        let t = create htm ctx cfg in
        {
          Collect_intf.name = "StaticBaseline";
          register = register t;
          update = update t;
          deregister = deregister t;
          collect = (fun ctx buf -> collect t ctx buf);
          destroy = destroy t;
          step_histogram = (fun () -> []);
        });
  }
