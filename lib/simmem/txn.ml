(* What the hardware and software transaction paths share: the abort
   vocabulary, the path tag and the lifecycle events. *)

type abort_reason = Conflict | Overflow | Illegal | Explicit | Lock_held | Spurious

(* Every reason, at its [reason_index]: the index of the per-reason tables. *)
let reasons = [| Conflict; Overflow; Illegal; Explicit; Lock_held; Spurious |]

let reason_index = function
  | Conflict -> 0
  | Overflow -> 1
  | Illegal -> 2
  | Explicit -> 3
  | Lock_held -> 4
  | Spurious -> 5

let abort_label = function
  | Conflict -> "conflict"
  | Overflow -> "overflow"
  | Illegal -> "illegal"
  | Explicit -> "explicit"
  | Lock_held -> "lock-held"
  | Spurious -> "spurious"

let pp_abort_reason ppf r = Format.pp_print_string ppf (abort_label r)

exception Aborted of abort_reason
exception Retry_exhausted of abort_reason

(* Built once, so raising either allocates nothing. *)
let ex_aborted = Array.map (fun r -> Aborted r) reasons
let ex_exhausted = Array.map (fun r -> Retry_exhausted r) reasons
let abort_with r = raise ex_aborted.(reason_index r)

type tx_path = P_hw | P_stm | P_tle

let path_label = function P_hw -> "hw" | P_stm -> "stm" | P_tle -> "tle"

type tx_event =
  | Tx_commit of {
      tx_reads : int;
      tx_writes : int;
      tx_path : tx_path;
      tx_attempt : int;
      tx_start : int;
    }
  | Tx_abort of {
      ab_reason : abort_reason;
      ab_path : tx_path;
      ab_attempt : int;
      ab_witness : Obs.Forensics.witness option;
      ab_start : int;
    }
  | Tx_fallback of { fb_attempt : int }
  | Tx_release of { rl_attempt : int; rl_start : int }
  | Tx_steal of { st_victim : int; st_locks : int }

let pp_tx_event ppf = function
  | Tx_commit { tx_reads; tx_writes; tx_path; tx_attempt; _ } ->
    Format.fprintf ppf "commit[%s] (%d reads, %d writes, attempt %d)" (path_label tx_path)
      tx_reads tx_writes tx_attempt
  | Tx_abort { ab_reason; ab_path; ab_attempt; ab_witness; _ } ->
    Format.fprintf ppf "abort[%s]: %a (attempt %d)" (path_label ab_path) pp_abort_reason
      ab_reason ab_attempt;
    (match ab_witness with
     | None -> ()
     | Some w -> Format.fprintf ppf " [%a]" Obs.Forensics.pp_witness w)
  | Tx_fallback _ -> Format.pp_print_string ppf "TLE lock fallback"
  | Tx_release { rl_attempt; _ } ->
    Format.fprintf ppf "TLE lock released (attempt %d)" rl_attempt
  | Tx_steal { st_victim; _ } -> Format.fprintf ppf "stm lock stolen from t%d" st_victim
