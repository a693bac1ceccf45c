type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Floats print via %.12g with a ".0" forced onto integral values, so a
   Float never round-trips back as an Int and rendering is deterministic. *)
let add_float b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string b s;
    if String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') s then
      Buffer.add_string b ".0"
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> add_float b f
  | Str s -> add_escaped b s
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_escaped b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let rec pretty b indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> to_buffer b v
  | List [] -> Buffer.add_string b "[]"
  | Obj [] -> Buffer.add_string b "{}"
  | List l ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        pretty b (indent + 2) v)
      l;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b ']'
  | Obj fields ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        add_escaped b k;
        Buffer.add_string b ": ";
        pretty b (indent + 2) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b '}'

let pretty_to_buffer b v = pretty b 0 v

let pretty_to_string v =
  let b = Buffer.create 1024 in
  pretty_to_buffer b v;
  Buffer.contents b

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b = Buffer.create 4096 in
      pretty_to_buffer b v;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               (match int_of_string_opt ("0x" ^ hex) with
                | None -> fail "bad \\u escape"
                | Some code ->
                  (* Non-ASCII code points re-encode as UTF-8. *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                  end;
                  pos := !pos + 5)
             | c -> fail (Printf.sprintf "bad escape \\%C" c));
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float = function Float f -> Some f | Int n -> Some (float_of_int n) | _ -> None
