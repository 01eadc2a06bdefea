type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x -> Buffer.add_string buf (float_to_string x)
  | String s -> escape_to buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        l;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_channel oc v =
  let buf = Buffer.create 65536 in
  to_buffer buf v;
  Buffer.output_buffer oc buf

let to_file path v =
  Out_channel.with_open_text path (fun oc ->
      to_channel oc v;
      output_char oc '\n')

(* -- parsing --------------------------------------------------------------

   Recursive-descent parser over the subset this repo emits (which is
   plain standard JSON). Errors carry the byte offset so a garbled
   metrics file produces a usable message instead of a backtrace. *)

exception Parse_failure of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_failure (!pos, msg)) in
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
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let utf8_add buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let cp =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              utf8_add buf cp
          | _ -> fail "bad escape");
          go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None ->
            pos := start;
            fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  with Parse_failure (at, msg) ->
    Error (Printf.sprintf "%s at offset %d" msg at)

let member name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

(* -- schema validation ----------------------------------------------------

   A structural validator over a tiny, self-hosted schema language (the
   schema is itself a JSON value): {"type": ...} where type is one of
   "object" (with "properties" / "required"), "array" (with "items"),
   "string", "int", "number", "bool", "null", "any". Enough to pin the
   shape of the exported trace and attribution files in CI without an
   external JSON-Schema dependency. *)

let rec validate ~schema v ~path =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let ty =
    match member "type" schema with Some (String t) -> t | _ -> "any"
  in
  match (ty, v) with
  | "any", _ -> Ok ()
  | "null", Null -> Ok ()
  | "bool", Bool _ -> Ok ()
  | "int", Int _ -> Ok ()
  | "number", (Int _ | Float _) -> Ok ()
  | "string", String _ -> Ok ()
  | "array", List items -> (
      match member "items" schema with
      | None -> Ok ()
      | Some ischema ->
          let rec go i = function
            | [] -> Ok ()
            | x :: rest -> (
                match
                  validate ~schema:ischema x
                    ~path:(Printf.sprintf "%s[%d]" path i)
                with
                | Ok () -> go (i + 1) rest
                | Error _ as e -> e)
          in
          go 0 items)
  | "object", Obj kvs -> (
      let required =
        match member "required" schema with
        | Some (List l) ->
            List.filter_map (function String s -> Some s | _ -> None) l
        | _ -> []
      in
      let props =
        match member "properties" schema with Some (Obj p) -> p | _ -> []
      in
      let missing =
        List.find_opt (fun k -> not (List.mem_assoc k kvs)) required
      in
      match missing with
      | Some k -> err "%s: missing required key %S" path k
      | None ->
          let rec go = function
            | [] -> Ok ()
            | (k, x) :: rest -> (
                match List.assoc_opt k props with
                | None -> go rest
                | Some pschema -> (
                    match
                      validate ~schema:pschema x ~path:(path ^ "." ^ k)
                    with
                    | Ok () -> go rest
                    | Error _ as e -> e))
          in
          go kvs)
  | ty, _ -> err "%s: expected %s" path ty

let validate ~schema v = validate ~schema v ~path:"$"
