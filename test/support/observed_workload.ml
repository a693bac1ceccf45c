(* A workload built to conflict, for the observer tests: thread 0 runs
   long scanning transactions over a 16-word region while three writers
   hammer it with naked stores. Strong atomicity dooms the scans
   mid-flight, so every transaction path aborts, escalates (under the
   config's policy) and captures witnesses. [sinks] are attached right
   after the heap is created, as the benchmark driver does, and also
   observe the scheduler; [metrics] parents the heap's and HTM's
   registries. Returns the region's base address, the committed
   sums and each thread's final clock — enough to detect any
   virtual-time perturbation. *)
let run ?(config = Htm.default_config) ?(sinks = []) ?metrics ~seed () =
  let mem = Simmem.create ?metrics () in
  Simmem.attach mem sinks;
  let htm = Htm.create ~config ?metrics mem in
  let boot = Sim.boot ~seed () in
  let arr = Simmem.malloc mem boot 16 in
  Simmem.label mem ~name:"shared" ~base:arr ~words:16;
  let clocks = Array.make 4 0 in
  let sum = ref 0 in
  Sim.run ~seed ?observe:(Simmem.observer mem)
    (Array.init 4 (fun i ->
         fun ctx ->
           (if i = 0 then
              for _ = 1 to 20 do
                sum :=
                  !sum
                  + Htm.atomic htm ctx (fun tx ->
                        let s = ref 0 in
                        for k = 0 to 15 do
                          s := !s + Htm.read tx (arr + k)
                        done;
                        Htm.write tx arr (!s land 0xff);
                        !s);
                Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 16)
              done
            else
              for r = 1 to 40 do
                Simmem.write mem ctx (arr + ((i * 5 + r) land 15)) r;
                Sim.tick ctx (1 + Sim.Rng.int (Sim.rng ctx) 16)
              done);
           clocks.(i) <- Sim.clock ctx));
  (arr, !sum, Array.to_list clocks)
