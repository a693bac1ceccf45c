(** The array-based collect algorithms (paper §3.2, §4) as one skeleton:
    the header layout, Figure 2's cooperative resize, its two update
    loops and the telescoped reverse collect, written once. Each dynamic
    array supplies a {!layout} — a record of toplevel functions saying
    what a slot holds and how it moves — and calls {!maker}; the static
    arrays share the slot operations and the collect.

    Header layout (word offsets from the header base):
    {v
      +0 array          base address of the current slot array
      +1 capacity       number of slots in it
      +2 count          number of registered slots
      +3 array_new      base of the array being installed, 0 when none
      +4 capacity_new
      +5 copied         slots copied so far during a resize
      +6 ...            a layout's own per-resize cursors, zeroed with copied
    v}
    Static algorithms use only the first three words. Figure 2's slot is
    two words: [+0] the value, [+1] the back-pointer to the handle's slot
    reference. The handle itself is the address of a one-word slot
    reference holding the slot's current address, which is how slots can
    move (compaction, resizing) under concurrent [update]s.

    The layout is a record of toplevel functions rather than a functor
    argument, as in the queues' [Ms_core]: a record of closed functions is
    a static constant, while a functor application allocates its closures
    at start-up. *)

let hdr_array = 0
let hdr_capacity = 1
let hdr_count = 2
let hdr_array_new = 3
let hdr_capacity_new = 4
let hdr_copied = 5
let hdr_words = 6

let slot_words = 2

type t = {
  htm : Htm.t;
  hdr : int;
  min_size : int;
  stepper : Stepper.t;
  l : layout;
}

and layout = {
  name : string;
  direct_update : bool;
  slot_words : int;
  hdr_words : int;  (** [hdr_words], plus the layout's per-resize cursors *)
  scan : int;
      (** the header word bounding the slots a copy or a collect visits:
          [hdr_count] when the registered slots are a prefix,
          [hdr_capacity] when deregistering leaves holes *)
  install_rereads : bool;
      (** whether installing the new array re-reads [array_new] rather
          than reusing the value the transaction read first (one more
          transactional load, which ArrayDynSearchResize has always paid) *)
  copy : Htm.tx -> hdr:int -> src:int -> dst:int -> unit;
      (** move the slot at [src] of the old array to [dst] of the new one
          during a resize, redirecting its handle *)
  read : Htm.tx -> int -> int -> Sim.Ibuf.t -> unit;
      (** [read tx arr i buf]: append slot [i]'s value, if it has one,
          inside a collect transaction *)
  register : t -> Sim.tctx -> int -> int;
      (** usually {!append_register} around the algorithm's slot [append] *)
  update : t -> Sim.tctx -> int -> int -> unit;
  deregister : t -> Sim.tctx -> int -> unit;
      (** usually {!compact_deregister} around its slot [compact] *)
}

(* Figure 2's [append] for two-word slots: store the value and
   back-pointer into the first unused slot, point the slot reference at
   it, and bump [count]. Must run inside the caller's transaction, with
   [count] already read there. *)
let append tx ~hdr ~count slot_ref v =
  let arr = Htm.read tx (hdr + hdr_array) in
  let slot = arr + (slot_words * count) in
  Htm.write tx slot v;
  Htm.write tx (slot + 1) slot_ref;
  Htm.write tx slot_ref slot;
  Htm.write tx (hdr + hdr_count) (count + 1)

(* Figure 2's deregister for two-word slots: move the last used slot into
   the hole (compaction on every deregister), redirecting the moved
   handle's slot reference. Inside the caller's transaction, with [count]
   already read there. *)
let compact tx ~hdr ~count slot_ref =
  Htm.write tx (hdr + hdr_count) (count - 1);
  let arr = Htm.read tx (hdr + hdr_array) in
  let last = arr + (slot_words * (count - 1)) in
  let mine = Htm.read tx slot_ref in
  let moved_ref = Htm.read tx (last + 1) in
  Htm.write tx mine (Htm.read tx last);
  Htm.write tx (mine + 1) moved_ref;
  Htm.write tx moved_ref mine

let read_value tx arr i buf =
  Sim.Ibuf.add buf (Htm.read tx (arr + (slot_words * i)));
  Htm.record tx

(* Update through the slot reference. The transaction's read-set validation
   guarantees the slot did not move between reading the reference and
   storing the value — the race that makes compaction hard without HTM. *)
let update_indirect htm ctx slot_ref v =
  Htm.atomic htm ctx (fun tx -> Htm.write tx (Htm.read tx slot_ref) v)

(* Telescoped reverse scan over the slots below the [scan] word (Figure 2's
   Collect with the §3.4 step-size generalisation). Reading in reverse
   index order is what makes compact-on-deregister safe: a surviving slot
   only ever moves to a lower index, so it cannot be skipped. Each
   transaction re-reads the bound and clamps the cursor, exactly as lines
   85–86 of the pseudocode (Figure 2 re-reads count before every element;
   within one transaction it cannot change — validation would abort — so
   one read per transaction is semantically identical). *)
let reverse_collect htm ctx ~hdr ~scan ~read ~stepper buf =
  let i = ref (Simmem.read (Htm.mem htm) ctx (hdr + scan) - 1) in
  while !i >= 0 do
    i :=
      Stepper.chunk stepper htm ctx buf (fun tx step ->
          let arr = Htm.read tx (hdr + hdr_array) in
          let j = ref (min !i (Htm.read tx (hdr + scan) - 1)) in
          let stop = !j - step in
          while !j > stop && !j >= 0 do
            read tx arr !j buf;
            decr j
          done;
          !j)
  done

(* {1 The dynamic-array skeleton (Figure 2)} *)

let copying tx hdr = Htm.read tx (hdr + hdr_array_new) <> 0

let create l htm ctx (cfg : Collect_intf.cfg) =
  let mem = Htm.mem htm in
  let min_size = max 1 cfg.min_size in
  let hdr = Simmem.malloc mem ctx l.hdr_words in
  let arr = Simmem.malloc mem ctx (l.slot_words * min_size) in
  Simmem.write mem ctx (hdr + hdr_array) arr;
  Simmem.write mem ctx (hdr + hdr_capacity) min_size;
  { htm; hdr; min_size; stepper = Stepper.make htm cfg.step ~max_step:(Htm.config htm).store_buffer; l }

(* One step of a resize, in one transaction: copy the next slot, or — in
   the same transaction that finds everything copied — make the new array
   current (§4.2: this is why registration during copying is safe). *)
let help_copy_one t ctx =
  let hdr = t.hdr and l = t.l in
  let to_free =
    Htm.atomic t.htm ctx (fun tx ->
        let anew = Htm.read tx (hdr + hdr_array_new) in
        if anew = 0 then 0
        else begin
          let copied = Htm.read tx (hdr + hdr_copied) in
          if copied < Htm.read tx (hdr + l.scan) then begin
            let arr = Htm.read tx (hdr + hdr_array) in
            l.copy tx ~hdr ~src:(arr + (l.slot_words * copied))
              ~dst:(anew + (l.slot_words * copied));
            Htm.write tx (hdr + hdr_copied) (copied + 1);
            0
          end
          else begin
            let old_arr = Htm.read tx (hdr + hdr_array) in
            Htm.write tx (hdr + hdr_array)
              (if l.install_rereads then Htm.read tx (hdr + hdr_array_new) else anew);
            Htm.write tx (hdr + hdr_capacity) (Htm.read tx (hdr + hdr_capacity_new));
            Htm.write tx (hdr + hdr_array_new) 0;
            old_arr
          end
        end)
  in
  if to_free <> 0 then Simmem.free (Htm.mem t.htm) ctx to_free

let help_copy t ctx =
  while Simmem.read (Htm.mem t.htm) ctx (t.hdr + hdr_array_new) <> 0 do
    help_copy_one t ctx
  done

(* Install a new array of twice the count, if the header still shows
   [count_l] and [capacity_l], then help the copy finish. Figure 2's rule
   [max(count, MIN_SIZE) <= capacity] needs no clamp here: every caller
   passes [2·count_l >= min_size] — a full array has
   [count_l = capacity_l >= min_size], and a shrink requires it — so by
   induction no capacity ever falls below [min_size]. *)
let attempt_resize t ctx ~count_l ~capacity_l =
  let mem = Htm.mem t.htm in
  let hdr = t.hdr in
  let new_capacity = 2 * count_l in
  let array_tmp = Simmem.malloc mem ctx (t.l.slot_words * new_capacity) in
  let free_tmp =
    Htm.atomic t.htm ctx (fun tx ->
        if
          (not (copying tx hdr))
          && Htm.read tx (hdr + hdr_count) = count_l
          && Htm.read tx (hdr + hdr_capacity) = capacity_l
        then begin
          Htm.write tx (hdr + hdr_array_new) array_tmp;
          Htm.write tx (hdr + hdr_capacity_new) new_capacity;
          for w = hdr_copied to t.l.hdr_words - 1 do
            Htm.write tx (hdr + w) 0
          done;
          false
        end
        else true)
  in
  if free_tmp then Simmem.free mem ctx array_tmp;
  help_copy t ctx

(* What an update transaction leaves for its loop to do outside it. *)
type action = Done | Resize of int * int | Help

let rec settle t ctx body =
  match Htm.atomic t.htm ctx body with
  | Done -> ()
  | Resize (count_l, capacity_l) ->
    attempt_resize t ctx ~count_l ~capacity_l;
    settle t ctx body
  | Help ->
    help_copy t ctx;
    settle t ctx body

(* Figure 2's Register loop: append when there is room — during a copy,
   only when both arrays have it (§4.2) — grow a full array, or help the
   copy in progress. [append] is the layout's, inside the transaction
   with [count] already read. *)
let append_register t ctx ~append handle v =
  let hdr = t.hdr in
  settle t ctx (fun tx ->
      let copying = copying tx hdr in
      let count = Htm.read tx (hdr + hdr_count) in
      if
        count < Htm.read tx (hdr + hdr_capacity)
        && ((not copying) || count < Htm.read tx (hdr + hdr_capacity_new))
      then begin
        append tx ~hdr ~count handle v;
        Done
      end
      else if copying then Help
      (* When the array is full, count = capacity, so Figure 2 passes
         count_l for both expected values (line 39). *)
      else Resize (count, count))

(* Figure 2's DeRegister loop: shrink a quarter-full array first, then
   [compact] the handle's slot away when no copy is in progress. *)
let compact_deregister t ctx ~compact handle =
  let hdr = t.hdr in
  settle t ctx (fun tx ->
      let count_l = Htm.read tx (hdr + hdr_count) in
      let capacity_l = Htm.read tx (hdr + hdr_capacity) in
      if count_l * 4 = capacity_l && count_l * 2 >= t.min_size then Resize (count_l, capacity_l)
      else if not (copying tx hdr) then begin
        compact tx ~hdr ~count:count_l handle;
        Done
      end
      else Help);
  Simmem.free (Htm.mem t.htm) ctx handle

let collect t ctx buf =
  (* §4.2: ensure no copy is in progress when the scan starts; otherwise an
     update already redirected to the new array could be missed even though
     it completed before this collect began. *)
  help_copy t ctx;
  reverse_collect t.htm ctx ~hdr:t.hdr ~scan:t.l.scan ~read:t.l.read ~stepper:t.stepper buf

let destroy t ctx =
  let mem = Htm.mem t.htm in
  let anew = Simmem.read mem ctx (t.hdr + hdr_array_new) in
  if anew <> 0 then Simmem.free mem ctx anew;
  Simmem.free mem ctx (Simmem.read mem ctx (t.hdr + hdr_array));
  Simmem.free mem ctx t.hdr

let maker l : Collect_intf.maker =
  {
    algo_name = l.name;
    solves_dynamic = true;
    uses_htm = true;
    direct_update = l.direct_update;
    make =
      (fun htm ctx cfg ->
        let t = create l htm ctx cfg in
        {
          Collect_intf.name = l.name;
          register = l.register t;
          update = l.update t;
          deregister = l.deregister t;
          collect = collect t;
          destroy = destroy t;
          step_histogram = (fun () -> Stepper.histogram t.stepper);
        });
  }
