(** §5.1: single-thread Update latency per algorithm.

    The paper reports ≈215 ns for the algorithms whose update goes through
    a level of indirection inside a transaction (ArrayStatAppendDereg,
    ArrayDynSearchResize, ArrayDynAppendDereg) and ≈135 ns for those whose
    handle addresses its storage directly (naked store). We report the same
    two-class split in virtual nanoseconds (0.5 ns per cycle). *)

type result = {
  algo : string;
  direct : bool;
  ns_per_update : float;
}

let run_one (maker : Collect.Intf.maker) ~handles ~updates ~seed =
  let m = Driver.machine ~seed ~label:maker.algo_name () in
  let cfg = { Collect.Intf.default_cfg with max_slots = handles * 2; num_threads = 1 } in
  let inst = maker.make m.htm m.boot cfg in
  let latency = ref 0.0 in
  let body ctx =
    let hs = Array.init handles (fun _ -> inst.register ctx (Driver.fresh_value ())) in
    let t0 = Sim.clock ctx in
    for i = 0 to updates - 1 do
      Driver.tick_dispatch ctx;
      inst.update ctx hs.(i mod handles) (Driver.fresh_value ())
    done;
    let cycles = Sim.clock ctx - t0 in
    latency := float_of_int cycles /. float_of_int updates *. 1000.0 /. float_of_int Driver.cycles_per_us;
    Array.iter (fun h -> inst.deregister ctx h) hs
  in
  Sim.run ~seed [| body |];
  inst.destroy m.boot;
  { algo = maker.algo_name; direct = maker.direct_update; ns_per_update = !latency }

(* One cell per algorithm, in canonical sweep order. *)
let cells ?(makers = Collect.all) ?(handles = 16) ?(updates = 2000) ?(seed = 21) () =
  List.map
    (fun (mk : Collect.Intf.maker) ->
      Runner.Cell.v ~label:("latency/" ^ mk.algo_name) (fun () ->
          run_one mk ~handles ~updates ~seed))
    makers

let to_table results =
  {
    Obs.Table.title = "Section 5.1: Update latency";
    xlabel = "algorithm";
    unit = "ns/update";
    columns = [ "latency"; "class" ];
    rows =
      List.map
        (fun r ->
          (r.algo, [ Some r.ns_per_update; Some (if r.direct then 135.0 else 215.0) ]))
        results;
  }
