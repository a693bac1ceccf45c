(** Space usage at quiescence — the paper's §1.1/§1.2 claims made
    quantitative.

    Queues: grow to [peak_len] entries, drain completely, then compare the
    allocator's live footprint against its historical peak. The HTM queue
    and the ROP variant return entries; plain Michael-Scott's pools retain
    the historical maximum. The collect experiment registers [peak]
    handles, deregisters them all, and reports what each algorithm still
    holds (dynamic algorithms shrink; static arrays and the type-stable
    Dynamic baseline do not). *)

type result = {
  subject : string;
  peak_words : int;  (** allocator peak while the structure was in use *)
  quiescent_words : int;  (** still live after drain/deregister-all *)
}

let queue_space_one ?(peak_len = 1000) ?(seed = 91) (mk : Hqueue.Intf.maker) =
  let m = Driver.machine ~seed ~label:("space/" ^ mk.queue_name) () in
      let base = (Simmem.stats m.mem).live_words in
      let q = mk.make m.htm m.boot ~num_threads:4 in
      (* Drive from simulated threads so per-thread pools/retired lists see
         realistic ownership. *)
      let bodies =
        Array.init 4 (fun i ->
            fun ctx ->
              for _ = 1 to peak_len / 4 do
                q.enqueue ctx (Driver.fresh_value ())
              done;
              if i = 0 then begin
                let rec drain () = match q.dequeue ctx with Some _ -> drain () | None -> () in
                drain ()
              end)
      in
      Sim.run ~seed bodies;
      let rec drain () = match q.dequeue m.boot with Some _ -> drain () | None -> () in
      drain ();
      let st = Simmem.stats m.mem in
      let r =
        {
          subject = "queue/" ^ mk.queue_name;
          peak_words = st.peak_live_words - base;
          quiescent_words = st.live_words - base;
        }
      in
      q.destroy m.boot;
      r

(* One cell per queue, in canonical sweep order. *)
let queue_cells ?peak_len ?seed () =
  List.map
    (fun (mk : Hqueue.Intf.maker) ->
      Runner.Cell.v ~label:("space/queue/" ^ mk.queue_name) (fun () ->
          queue_space_one ?peak_len ?seed mk))
    Hqueue.all

let collect_space_one ?(peak = 256) ?(seed = 92) (mk : Collect.Intf.maker) =
  let m = Driver.machine ~seed ~label:("space/" ^ mk.algo_name) () in
      let base = (Simmem.stats m.mem).live_words in
      let cfg =
        { Collect.Intf.max_slots = peak; num_threads = 1; step = Collect.Intf.Fixed 8;
          min_size = 4 }
      in
      let inst = mk.make m.htm m.boot cfg in
      let quiescent = ref 0 in
      let body ctx =
        let hs = Array.init peak (fun _ -> inst.register ctx (Driver.fresh_value ())) in
        Array.iter (fun h -> inst.deregister ctx h) hs;
        quiescent := (Simmem.stats m.mem).live_words - base
      in
      Sim.run ~seed [| body |];
      let st = Simmem.stats m.mem in
      let r =
        {
          subject = "collect/" ^ mk.algo_name;
          peak_words = st.peak_live_words - base;
          quiescent_words = !quiescent;
        }
      in
      inst.destroy m.boot;
      r

(* One cell per algorithm, in canonical sweep order. *)
let collect_cells ?peak ?seed () =
  List.map
    (fun (mk : Collect.Intf.maker) ->
      Runner.Cell.v ~label:("space/collect/" ^ mk.algo_name) (fun () ->
          collect_space_one ?peak ?seed mk))
    Collect.all

let to_table ~title results =
  {
    Obs.Table.title;
    xlabel = "structure";
    unit = "words";
    columns = [ "peak"; "quiescent" ];
    rows =
      List.map
        (fun r ->
          (r.subject, [ Some (float_of_int r.peak_words); Some (float_of_int r.quiescent_words) ]))
        results;
  }
