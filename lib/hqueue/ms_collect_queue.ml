let no_announcement = 1

type t = {
  mem : Simmem.t;
  announcements : Collect.Intf.instance;
  handles : int array; (* two announcement handles per thread, 0 = none yet *)
  retired : Ms_core.stacks;
  scan_threshold : int;
}

let init htm ctx ~num_threads ~hdr:_ ~array:_ =
  let announcements =
    Collect.Array_dyn_append_dereg.maker.make htm ctx
      { Collect.Intf.max_slots = 2 * (num_threads + 1); num_threads;
        step = Collect.Intf.Fixed 8; min_size = 4 }
  in
  {
    mem = Htm.mem htm;
    announcements;
    handles = Array.make (2 * (Sim.max_threads + 1)) 0;
    retired = Ms_core.stacks (Sim.max_threads + 1);
    scan_threshold = (4 * num_threads) + 4;
  }

(* Lazy per-thread registration: the first operation by a thread claims
   its two announcement handles; the object grows with actual users. *)
let announce r ctx i node =
  let k = 2 * Sim.tid ctx in
  if r.handles.(k) = 0 then begin
    r.handles.(k) <- r.announcements.register ctx no_announcement;
    r.handles.(k + 1) <- r.announcements.register ctx no_announcement
  end;
  r.announcements.update ctx r.handles.(k + i) node

(* A null successor is never dereferenced, so it is not announced. *)
let protect r ctx i node = if node <> 0 then announce r ctx i node

let exit r ctx ~slots =
  for i = 0 to slots - 1 do
    announce r ctx i no_announcement
  done

(* Free every retired node not currently announced by anyone: the scan is
   a Dynamic Collect. *)
let scan r ctx retired =
  let buf = Sim.Ibuf.create () in
  r.announcements.collect ctx buf;
  Ms_core.reclaim r.mem ctx ~keep:(Ms_core.announced buf) retired

let retire r ctx node =
  let retired = Ms_core.stack r.retired (Sim.tid ctx) in
  Sim.Ibuf.add retired node;
  if Sim.Ibuf.length retired >= r.scan_threshold then scan r ctx retired

(* The handles and the collect object go before the list is walked. *)
let drain r ctx =
  Ms_core.free_stacks r.mem ctx r.retired;
  Array.iter (fun h -> if h <> 0 then r.announcements.deregister ctx h) r.handles;
  r.announcements.destroy ctx

let maker =
  Ms_core.maker "MichaelScott+Collect"
    { Ms_core.defaults with
      label = Some "MSQueue+Collect"; protect; validates = true; exit; retire; drain }
    init
