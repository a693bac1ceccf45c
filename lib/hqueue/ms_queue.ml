type t = { mem : Simmem.t; pools : Ms_core.stacks (* per-thread free nodes *) }

let recycle r ctx =
  match r.pools.(Sim.tid ctx) with
  | Some pool when Sim.Ibuf.length pool > 0 -> Sim.Ibuf.pop pool
  | _ -> 0

let ptr w = w land 0xFFFFFFFF
let tag_of w = w lsr 32
let swing old p = (((tag_of old + 1) land 0x0FFFFFFF) lsl 32) lor p

(* Recycled nodes keep their next-word tag monotonic across reuses. *)
let reset_next mem ctx node =
  let old = Simmem.read mem ctx (node + Ms_core.off_next) in
  Simmem.write mem ctx (node + Ms_core.off_next) (swing old 0)

let retire r ctx node = Sim.Ibuf.add (Ms_core.stack r.pools (Sim.tid ctx)) node
let drain r ctx = Ms_core.free_stacks r.mem ctx r.pools

let maker =
  Ms_core.maker "MichaelScott"
    { Ms_core.defaults with
      reclaims = false; label = Some "MSQueue"; recycle; ptr; swing; reset_next; retire; drain }
    (fun htm _ ~num_threads:_ ~hdr:_ ~array:_ ->
      { mem = Htm.mem htm; pools = Ms_core.stacks (Sim.max_threads + 1) })
