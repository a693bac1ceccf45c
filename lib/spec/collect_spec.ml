(* Checker for the Dynamic Collect specification (paper §2.3).

   Every bound value is globally unique, so a value returned by a collect
   identifies exactly one bind event (Register or Update) on one handle
   registration. Operations are logged with logical-time intervals —
   stamps drawn from a counter bumped at every wrapper event, so an
   interval endpoint records *execution order*, which in the cooperative
   simulator is the real-time order of the §2.3 specification. (Virtual
   clocks would serve equally well under the min-clock scheduler, but the
   exploration strategies of [Sim.strategy] deliberately run threads out
   of virtual-time order, and there only execution order is meaningful.)
   Afterwards every collect is checked against the two conditions of the
   specification:

   - validity: each returned value's bind either is the last bind of its
     handle not superseded/deregistered before the collect began, or
     overlaps the collect;
   - completeness: every handle whose registration completed before the
     collect began and whose deregistration (if any) began after the
     collect ended must contribute at least one value.

   Handles may be returned multiple times (the spec allows duplicates). *)

type bind = { b_start : int; b_end : int; value : int }

type instance_log = {
  id : int;
  reg : bind; (* the registration: the oldest of [binds] *)
  mutable binds : bind list; (* newest first *)
  mutable dereg : (int * int) option;
}

type collect_log = { c_start : int; c_end : int; returned : int list }

type t = {
  mutable next_value : int;
  values : (int, instance_log * bind) Hashtbl.t; (* value -> its registration, bind *)
  current : (int, instance_log) Hashtbl.t; (* live handle address -> registration *)
  mutable instances : instance_log list;
  mutable collects : collect_log list;
  mutable next_id : int;
  mutable now : int; (* logical clock: one tick per wrapper event *)
}

let create () =
  {
    next_value = 0;
    values = Hashtbl.create 1024;
    current = Hashtbl.create 64;
    instances = [];
    collects = [];
    next_id = 0;
    now = 0;
  }

let fresh_value t =
  t.next_value <- t.next_value + 1;
  t.next_value

let stamp t =
  t.now <- t.now + 1;
  t.now

(* Kill-awareness: an operation interrupted by a crash (Sim.Stop_thread or
   any other exception escaping the instance call) is logged as if it never
   completed — its interval is [s, max_int], so a bind the crashed thread
   may or may not have installed stays "allowed forever but never required",
   exactly the §2.3 reading of an operation that overlaps everything after
   it. The exception is re-raised so the thread still dies. *)

let register t (inst : Collect.Intf.instance) ctx =
  let v = fresh_value t in
  let s = stamp t in
  let log b_end =
    let reg = { b_start = s; b_end; value = v } in
    let il = { id = t.next_id; reg; binds = [ reg ]; dereg = None } in
    t.next_id <- t.next_id + 1;
    t.instances <- il :: t.instances;
    Hashtbl.replace t.values v (il, reg);
    il
  in
  match inst.register ctx v with
  | h ->
    Hashtbl.replace t.current h (log (stamp t));
    h
  | exception ex ->
    (* No handle was returned, so the registration can never become
       "required" — but its value may already be visible to collects. *)
    ignore (log max_int);
    raise ex

let update t (inst : Collect.Intf.instance) ctx h =
  let il = Hashtbl.find t.current h in
  let v = fresh_value t in
  let s = stamp t in
  let log b_end =
    let b = { b_start = s; b_end; value = v } in
    il.binds <- b :: il.binds;
    Hashtbl.replace t.values v (il, b)
  in
  match inst.update ctx h v with
  | () -> log (stamp t)
  | exception ex ->
    log max_int;
    raise ex

let deregister t (inst : Collect.Intf.instance) ctx h =
  let il = Hashtbl.find t.current h in
  Hashtbl.remove t.current h;
  let s = stamp t in
  match inst.deregister ctx h with
  | () ->
    let e = stamp t in
    il.dereg <- Some (s, e)
  | exception ex ->
    il.dereg <- Some (s, max_int);
    raise ex

let collect t (inst : Collect.Intf.instance) ctx =
  let buf = Sim.Ibuf.create ~capacity:64 () in
  let s = stamp t in
  match inst.collect ctx buf with
  | () ->
    let e = stamp t in
    t.collects <- { c_start = s; c_end = e; returned = Sim.Ibuf.to_list buf } :: t.collects
  | exception ex ->
    (* A collect that never returned made no claim: discard the partial
       result set rather than checking half an answer. *)
    raise ex

type verdict = { checked_collects : int; checked_values : int }

exception Violation of string

let check t =
  (* For each value: the completion time of the *next* event (bind or
     deregister) on the same handle, or max_int if none. Binds are
     newest-first, so the event after the newest bind is the dereg. *)
  let next_end = Hashtbl.create 1024 in
  let rec go newer = function
    | [] -> ()
    | b :: older ->
      Hashtbl.replace next_end b.value newer;
      go b.b_end older
  in
  List.iter
    (fun il -> go (match il.dereg with Some (_, e) -> e | None -> max_int) il.binds)
    t.instances;
  let nvalues = ref 0 in
  let collects = List.rev t.collects in
  List.iter
    (fun c ->
      (* validity *)
      List.iter
        (fun v ->
          incr nvalues;
          match Hashtbl.find_opt t.values v with
          | None -> raise (Violation (Printf.sprintf "collect returned unknown value %d" v))
          | Some (_, b) ->
            if b.b_start > c.c_end then
              raise
                (Violation
                   (Printf.sprintf
                      "value %d bound at [%d,%d], after collect [%d,%d] ended" v b.b_start
                      b.b_end c.c_start c.c_end));
            let ne = Hashtbl.find next_end v in
            if ne < c.c_start then
              raise
                (Violation
                   (Printf.sprintf
                      "value %d superseded at %d, before collect [%d,%d] began" v ne
                      c.c_start c.c_end)))
        c.returned;
      (* completeness *)
      let present = Hashtbl.create 64 in
      List.iter
        (fun v ->
          match Hashtbl.find_opt t.values v with
          | Some (il, _) -> Hashtbl.replace present il.id ()
          | None -> ())
        c.returned;
      List.iter
        (fun il ->
          let reg = il.reg in
          let required =
            reg.b_end < c.c_start
            && (match il.dereg with None -> true | Some (ds, _) -> ds > c.c_end)
          in
          if required && not (Hashtbl.mem present il.id) then
            raise
              (Violation
                 (Printf.sprintf
                    "handle %d (registered at [%d,%d]) missing from collect [%d,%d]" il.id
                    reg.b_start reg.b_end c.c_start c.c_end)))
        t.instances)
    collects;
  { checked_collects = List.length collects; checked_values = !nvalues }
