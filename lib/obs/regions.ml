let line_shift = 3

type t = (int, string list ref) Hashtbl.t

let create () = Hashtbl.create 256

let add t line name =
  match Hashtbl.find_opt t line with
  | Some names -> if not (List.mem name !names) then names := name :: !names
  | None -> Hashtbl.add t line (ref [ name ])

let label t ~name ~base ~words =
  if words > 0 then
    for line = base lsr line_shift to (base + words - 1) lsr line_shift do
      add t line name
    done

let region_of t line =
  match Hashtbl.find_opt t line with
  | None | Some { contents = [] } -> "?"
  | Some names -> String.concat " + " (List.sort String.compare !names)

let absorb dst src =
  Hashtbl.iter (fun line names -> List.iter (add dst line) (List.rev !names)) src
