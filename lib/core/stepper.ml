(** Per-thread telescoping step control shared by the HTM collects.

    With [Fixed n] every thread always uses step [min n max_step]. With
    [Adaptive] each thread owns an independent {!Htm.Adapt} controller,
    since adaptation must react to the contention {e this} thread
    experiences. [max_step] is per algorithm: e.g. HOHRC spends up to 5
    store-buffer slots on reference-count bookkeeping, so its collect steps
    cannot reach 32. *)

type policy = Fixed_step of int | Adaptive_step of Htm.Adapt.t option array

type t = { mem : Simmem.t; max_step : int; policy : policy; overhead : int }

(* The paper measured 20–30 % overhead for maintaining the outcome window
   (§5.3) and noted it "could be reduced or eliminated with simple hardware
   support". Our controller runs outside simulated memory, so we charge its
   bookkeeping as an explicit per-transaction cycle cost instead. *)
let adapt_overhead_cycles = 40

let rec highest_pow2_le n = if n land (n - 1) = 0 then n else highest_pow2_le (n land (n - 1))

let make htm (p : Collect_intf.step_policy) ~max_step =
  let mem = Htm.mem htm and max_step = max 1 max_step in
  match p with
  | Collect_intf.Fixed n ->
    { mem; max_step; policy = Fixed_step (max 1 (min n max_step)); overhead = 0 }
  | Collect_intf.Fixed_instrumented n ->
    { mem;
      max_step;
      policy = Fixed_step (max 1 (min n max_step));
      overhead = adapt_overhead_cycles }
  | Collect_intf.Adaptive ->
    { mem;
      max_step = highest_pow2_le max_step;
      policy = Adaptive_step (Array.make (Simmem.slots mem) None);
      overhead = adapt_overhead_cycles }

let adapt_for t arr ctx =
  let i = Simmem.slot t.mem (Sim.tid ctx) in
  match arr.(i) with
  | Some a -> a
  | None ->
    let a = Htm.Adapt.create ~max_step:t.max_step ~initial:1 () in
    arr.(i) <- Some a;
    a

let get t ctx =
  match t.policy with
  | Fixed_step n -> n
  | Adaptive_step arr -> Htm.Adapt.step (adapt_for t arr ctx)

let on_commit t ctx =
  if t.overhead > 0 then Sim.tick ctx t.overhead;
  match t.policy with
  | Fixed_step _ -> ()
  | Adaptive_step arr -> Htm.Adapt.on_commit (adapt_for t arr ctx)

let on_abort t ctx =
  if t.overhead > 0 then Sim.tick ctx t.overhead;
  match t.policy with
  | Fixed_step _ -> ()
  | Adaptive_step arr -> Htm.Adapt.on_abort (adapt_for t arr ctx)

let record_collected t ctx n =
  match t.policy with
  | Fixed_step _ -> ()
  | Adaptive_step arr -> Htm.Adapt.record_collected (adapt_for t arr ctx) n

(* One transaction of a telescoped collect (§3.4), the driver every HTM
   collect shares: [body tx step] appends up to [step] values to [buf]
   (an aborted attempt's values are dropped by rewinding [buf]), then the
   commit and the values collected are recorded at the step size used. A
   chunk that adds nothing (a restarting FastCollect) records zero, which
   leaves the histogram unchanged. *)
let chunk t htm ctx buf body =
  let len0 = Sim.Ibuf.length buf in
  let r =
    Htm.atomic htm ctx
      ~on_abort:(fun _ -> on_abort t ctx)
      (fun tx ->
        Sim.Ibuf.reset_to buf len0;
        body tx (get t ctx))
  in
  on_commit t ctx;
  record_collected t ctx (Sim.Ibuf.length buf - len0);
  r

let histogram t =
  match t.policy with
  | Fixed_step _ -> []
  | Adaptive_step arr ->
    let tbl = Hashtbl.create 8 in
    Array.iter
      (function
        | None -> ()
        | Some a ->
          List.iter
            (fun (s, n) ->
              Hashtbl.replace tbl s (n + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
            (Htm.Adapt.histogram a))
      arr;
    List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) tbl [])
