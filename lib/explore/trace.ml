type t = {
  limit : int;
  mutable n : int;
  mutable rev : string list;
  mutable dropped : int;
}

let create ?(limit = 4000) () = { limit; n = 0; rev = []; dropped = 0 }

let note t line =
  if t.n >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.rev <- line :: t.rev;
    t.n <- t.n + 1
  end

let on_fault t (ev : Sim.Fault.event) =
  let what =
    match ev.ev_kind with
    | Sim.Fault.Stalled d -> Printf.sprintf "stalled %d cycles" d
    | Sim.Fault.Killed -> "killed"
    | Sim.Fault.Killed_at p -> "killed at " ^ p
    | Sim.Fault.Spurious_abort -> "spurious abort armed"
  in
  note t (Format.asprintf "t%-2d @%-9d flt  %s" ev.ev_tid ev.ev_clock what)

(* With the last-writer journal on, abort lines name the write that
   doomed each transaction (pp_tx_event renders the witness).
   The TLE lock release gets no line: the acquisition marks the section. *)
let sink t =
  let fold ~tid ~clock (ev : Simmem.event) =
    match ev with
    | Access a ->
      note t (Format.asprintf "t%-2d @%-9d mem  %a" tid clock Simmem.pp_access a)
    | Tx (Tx_release _) -> ()
    | Tx ev -> note t (Format.asprintf "t%-2d @%-9d htm  %a" tid clock Htm.pp_tx_event ev)
    | Miss _ | Label _ | Witness _ | Hop _ -> ()
  in
  { Simmem.fold; accesses = true; journal = true }

let lines t =
  let l = List.rev t.rev in
  if t.dropped = 0 then l
  else
    l
    @ [ Printf.sprintf "(... %d further events beyond the %d-line limit)" t.dropped t.limit ]
