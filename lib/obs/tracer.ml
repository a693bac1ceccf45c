type ev = {
  e_pid : int;
  e_tid : int;
  e_name : string;
  e_cat : string;
  e_ph : char; (* 'X' complete span | 'i' instant | 's'/'f' flow ends *)
  e_ts : int;
  e_dur : int;
  e_id : int; (* flow-event correlation id ('s'/'f' only) *)
  e_args : (string * Json.t) list;
}

let dummy =
  { e_pid = 0; e_tid = 0; e_name = ""; e_cat = ""; e_ph = 'i'; e_ts = 0; e_dur = 0;
    e_id = 0; e_args = [] }

type t = {
  ring : ev array;
  mutable total : int;
  mutable next_pid : int;
  mutable next_flow : int;
  mutable rev_procs : (int * string) list;
  mutable rev_threads : (int * int * string) list;
}

type sink = { tr : t; pid : int }

let create ?(capacity = 1 lsl 18) () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  { ring = Array.make capacity dummy; total = 0; next_pid = 0; next_flow = 0;
    rev_procs = []; rev_threads = [] }

let process t ~name =
  t.next_pid <- t.next_pid + 1;
  t.rev_procs <- (t.next_pid, name) :: t.rev_procs;
  { tr = t; pid = t.next_pid }

let push t e =
  t.ring.(t.total mod Array.length t.ring) <- e;
  t.total <- t.total + 1

let span s ~tid ~name ?(cat = "") ?(args = []) t0 t1 =
  push s.tr
    { e_pid = s.pid; e_tid = tid; e_name = name; e_cat = cat; e_ph = 'X'; e_ts = t0;
      e_dur = max 0 (t1 - t0); e_id = 0; e_args = args }

let instant s ~tid ~name ?(cat = "") ?(args = []) t =
  push s.tr
    { e_pid = s.pid; e_tid = tid; e_name = name; e_cat = cat; e_ph = 'i'; e_ts = t;
      e_dur = 0; e_id = 0; e_args = args }

let flow_id s =
  s.tr.next_flow <- s.tr.next_flow + 1;
  s.tr.next_flow

let flow_start s ~tid ~name ?(cat = "") ?(args = []) ~id t =
  push s.tr
    { e_pid = s.pid; e_tid = tid; e_name = name; e_cat = cat; e_ph = 's'; e_ts = t;
      e_dur = 0; e_id = id; e_args = args }

let flow_finish s ~tid ~name ?(cat = "") ?(args = []) ~id t =
  push s.tr
    { e_pid = s.pid; e_tid = tid; e_name = name; e_cat = cat; e_ph = 'f'; e_ts = t;
      e_dur = 0; e_id = id; e_args = args }

let thread_name s ~tid name =
  let seen = List.exists (fun (p, t, n) -> p = s.pid && t = tid && n = name) s.tr.rev_threads in
  if not seen then s.tr.rev_threads <- (s.pid, tid, name) :: s.tr.rev_threads

let recorded t = t.total
let dropped t = max 0 (t.total - Array.length t.ring)

let ev_json e =
  let base =
    [
      ("name", Json.Str e.e_name);
      ("cat", Json.Str (if e.e_cat = "" then "sim" else e.e_cat));
      ("ph", Json.Str (String.make 1 e.e_ph));
      ("ts", Json.Int e.e_ts);
      ("pid", Json.Int e.e_pid);
      ("tid", Json.Int e.e_tid);
    ]
  in
  let tail =
    (match e.e_ph with
     | 'X' -> [ ("dur", Json.Int e.e_dur) ]
     | 's' -> [ ("id", Json.Int e.e_id) ]
     | 'f' -> [ ("id", Json.Int e.e_id); ("bp", Json.Str "e") ]
     | _ -> [ ("s", Json.Str "t") ])
    @ (if e.e_args = [] then [] else [ ("args", Json.Obj e.e_args) ])
  in
  Json.Obj (base @ tail)

let meta_json ~pid ~tid ~meta_name ~value =
  Json.Obj
    [
      ("name", Json.Str meta_name);
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]

let to_json t =
  let cap = Array.length t.ring in
  let n = min t.total cap in
  let first = if t.total <= cap then 0 else t.total mod cap in
  let events = ref [] in
  for i = n - 1 downto 0 do
    events := ev_json t.ring.((first + i) mod cap) :: !events
  done;
  let procs =
    List.rev_map
      (fun (pid, name) -> meta_json ~pid ~tid:0 ~meta_name:"process_name" ~value:name)
      t.rev_procs
  in
  let threads =
    List.rev_map
      (fun (pid, tid, name) -> meta_json ~pid ~tid ~meta_name:"thread_name" ~value:name)
      t.rev_threads
  in
  (* Ring truncation must be loud in the trace itself: a metadata record
     tells Perfetto analysis how much of the timeline is missing. *)
  let drop_meta =
    if dropped t = 0 then []
    else
      [ Json.Obj
          [
            ("name", Json.Str "tracer.dropped");
            ("ph", Json.Str "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int 0);
            ( "args",
              Json.Obj
                [
                  ("droppedEvents", Json.Int (dropped t));
                  ("recordedEvents", Json.Int t.total);
                ] );
          ] ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (procs @ threads @ drop_meta @ !events));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("clockDomain", Json.Str "virtual-cycles");
            ("recordedEvents", Json.Int t.total);
            ("droppedEvents", Json.Int (dropped t));
          ] );
    ]

let write_file t path = Json.write_file path (to_json t)
