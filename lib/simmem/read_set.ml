(* The transactional read set that {!Htm} and {!Stm} share. *)

open Heap

type granularity = Word | Line

(* Entries are (address, version noted when it was read), one per
   transactional read: {!note} appends without looking the address up,
   as a hardware read set marks a line whatever it held before.
   Duplicates never change a check. Versions only grow, so a re-read's
   entry follows its address's first entry and notes a version at least
   as new; whenever any entry for an address is stale, its first entry
   is stale too, and the first stale entry in order is always a first
   occurrence.

   - [checked] is the heap's bump count at the last successful full
     check. Versions change only in [bump_version], which advances the
     count, and every entry notes the version current when it was
     added; so an unchanged count means every entry still holds and the
     scan would return [true]. Any bump at all forces the full scan.

   - {!distinct} counts addresses through an open-addressing table
     ([keys]/[stamps], load at most 1/2). A slot is occupied iff its
     stamp equals [gen]; each count bumps [gen], which empties the
     table without clearing it. The table is allocated the first time
     a count needs it, so sets that are never counted never pay for
     it. *)
type t = {
  mem : Heap.t;
  mutable gran : granularity;
  mutable addrs : int array;
  mutable vers : int array;
  mutable n : int;
  mutable checked : int;
  mutable gen : int;
  mutable keys : int array;
  mutable stamps : int array;
}

let create mem gran =
  {
    mem;
    gran;
    addrs = Array.make 64 0;
    vers = Array.make 64 0;
    n = 0;
    checked = -1;
    gen = 0;
    keys = [||];
    stamps = [||];
  }

let reset rs =
  rs.n <- 0;
  rs.checked <- -1

let length rs = rs.n
let addr rs i = rs.addrs.(i)

let version rs addr =
  match rs.gran with
  | Word -> rs.mem.versions.(addr)
  | Line -> rs.mem.lversions.(addr lsr line_shift)

let grow rs =
  let n = 2 * Array.length rs.addrs in
  rs.addrs <- extend rs.addrs n 0;
  rs.vers <- extend rs.vers n 0

(* [ver] is the word version the transactional load just returned, so
   the word plane notes it as is. *)
let[@inline] note rs addr ver =
  let n = rs.n in
  if n = Array.length rs.addrs then grow rs;
  rs.addrs.(n) <- addr;
  rs.vers.(n) <- (match rs.gran with Word -> ver | Line -> rs.mem.lversions.(addr lsr line_shift));
  rs.n <- n + 1

let slot keys addr =
  let h = addr * 0x9E3779B1 in
  (h lxor (h lsr 17)) land (Array.length keys - 1)

(* Insert [addr] into the index; [false] if it was already there. *)
let rec index_add rs addr i =
  if rs.stamps.(i) <> rs.gen then begin
    rs.keys.(i) <- addr;
    rs.stamps.(i) <- rs.gen;
    true
  end
  else if rs.keys.(i) = addr then false
  else index_add rs addr ((i + 1) land (Array.length rs.keys - 1))

let rec count rs i acc =
  if i >= rs.n then acc
  else
    let a = rs.addrs.(i) in
    count rs (i + 1) (if index_add rs a (slot rs.keys a) then acc + 1 else acc)

let distinct rs =
  (* [addrs] has a power-of-two length of at least [n] *)
  let cap = 2 * Array.length rs.addrs in
  if Array.length rs.keys < cap then begin
    rs.keys <- Array.make cap 0;
    rs.stamps <- Array.make cap 0
  end;
  rs.gen <- rs.gen + 1;
  count rs 0 0

(* The first entry, in first-read order, whose version moved, or -1. *)
let rec scan rs i =
  if i >= rs.n then -1
  else if version rs rs.addrs.(i) <> rs.vers.(i) then rs.addrs.(i)
  else scan rs (i + 1)

let first_invalid rs = scan rs 0

let validate_full rs =
  if scan rs 0 >= 0 then false
  else begin
    rs.checked <- rs.mem.bumps;
    true
  end

(* Inlined into every transactional load: no bump since the last full
   check is one compare; any bump runs the scan. *)
let[@inline] validate rs = rs.checked = rs.mem.bumps || validate_full rs
