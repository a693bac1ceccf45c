(* SplitMix64 (Steele, Lea and Flood) on one 64-bit state.

   A [mutable state : int64] record field boxes on every store (no
   flambda), and the simulator draws several times per simulated
   operation (dispatch jitter, op mixes, scheduler tie-breaks,
   transaction-begin jitter). The state lives in an 8-byte [Bytes.t]
   instead, read and written with the unboxed 64-bit primitives; ocamlopt
   keeps [int64] locals unboxed inside a function, so a draw allocates
   nothing. test/test_rng.ml pins known answers and the equivalence
   against a boxed Int64 reference implementation, so recorded schedules
   and committed benchmark artifacts are preserved byte-for-byte. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* One step: advance the state by the golden gamma, then mix it. *)
let[@inline] next t =
  let s = Int64.add (get t 0) 0x9E3779B97F4A7C15L in
  set t 0 s;
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t = next t
let bits t = Int64.to_int (next t)
let split t = of_state (next t)

(* The 63-bit value z >>> 1 is non-negative, so [rem] is the unsigned
   remainder. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.to_int (next t) land 1 = 1

(* z >>> 11 is 53 bits: exact as a float *)
let float t bound =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0 *. bound
