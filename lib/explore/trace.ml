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

(* With the last-writer journal on, abort lines name the write that
   doomed each transaction (pp_tx_event renders the witness).
   The TLE lock release gets no line: the acquisition marks the section,
   as it marks a hardware block's hop straight to the lock; nor do
   scheduler slices, which the accesses already order. *)
let sink t =
  let fold ~tid ~clock (ev : Simmem.event) =
    match ev with
    | Access a ->
      note t (Format.asprintf "t%-2d @%-9d mem  %a" tid clock Simmem.pp_access a)
    | Tx (Tx_release _) | Hop { from_path = P_hw; to_path = P_tle; _ } -> ()
    | Tx ev -> note t (Format.asprintf "t%-2d @%-9d htm  %a" tid clock Htm.pp_tx_event ev)
    | Hop { to_path; attempt; _ } ->
      note t
        (Format.asprintf "t%-2d @%-9d htm  escalate to %s (attempt %d)" tid clock
           (Htm.path_label to_path) attempt)
    | Sched (Fault kind) ->
      let what =
        match kind with
        | Stalled d -> Printf.sprintf "stalled %d cycles" d
        | Killed -> "killed"
        | Killed_at p -> "killed at " ^ p
        | Spurious_abort -> "spurious abort armed"
      in
      note t (Format.asprintf "t%-2d @%-9d flt  %s" tid clock what)
    | Sched (Slice _) | Miss _ | Label _ | Witness _ -> ()
  in
  { Simmem.fold; accesses = true; journal = true }

let lines t =
  let l = List.rev t.rev in
  if t.dropped = 0 then l
  else
    l
    @ [ Printf.sprintf "(... %d further events beyond the %d-line limit)" t.dropped t.limit ]
