(* Minimal JSON: just enough for the repository's artifacts (witness
   files, checkpoints, bench output).  Deterministic printing, strict
   parsing. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* The shortest of [%.15g] / [%.17g] that reads back as [f], always
   with a [.] or an exponent so [parse] returns a [Float], never an
   [Int].  Non-finite values keep OCaml's spelling (not JSON). *)
let float_repr f =
  if not (Float.is_finite f) then Printf.sprintf "%.17g" f
  else
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_string ?(indent = 2) v =
  let b = Buffer.create 256 in
  let pad n = if indent > 0 then Buffer.add_string b (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i x ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) x)
          xs;
        nl ();
        pad depth;
        Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, x) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            escape b k;
            Buffer.add_string b (if indent > 0 then ": " else ":");
            go (depth + 1) x)
          fields;
        nl ();
        pad depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

(* --- parsing --- *)

exception Bad of string * int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail msg = raise (Bad (msg, !pos)) in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
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
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; incr pos
               | '\\' -> Buffer.add_char b '\\'; incr pos
               | '/' -> Buffer.add_char b '/'; incr pos
               | 'n' -> Buffer.add_char b '\n'; incr pos
               | 'r' -> Buffer.add_char b '\r'; incr pos
               | 't' -> Buffer.add_char b '\t'; incr pos
               | 'b' -> Buffer.add_char b '\b'; incr pos
               | 'f' -> Buffer.add_char b '\012'; incr pos
               | 'u' ->
                   if !pos + 4 >= n then fail "bad \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                   in
                   (* Artifacts only escape control characters; decode the
                      Latin-1 range and reject the rest. *)
                   if code < 0x100 then Buffer.add_char b (Char.chr code)
                   else fail "unsupported \\u escape";
                   pos := !pos + 5
               | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E' then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields_loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items_loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> invalid_arg ("Json.parse: " ^ msg)

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let field k v =
  match member k v with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Json: missing field %S" k)

(* A type mismatch names the field when the caller says which one it
   read ([?field], or {!get}); otherwise it names the accessor. *)
let mismatch ?field accessor expected =
  invalid_arg
    (match field with
    | Some k -> Printf.sprintf "field %S: expected %s" k expected
    | None -> "Json." ^ accessor)

let to_int ?field = function Int i -> i | _ -> mismatch ?field "to_int" "int"

let to_float ?field = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> mismatch ?field "to_float" "number"

let to_bool ?field = function Bool b -> b | _ -> mismatch ?field "to_bool" "bool"
let to_str ?field = function String s -> s | _ -> mismatch ?field "to_str" "string"
let to_list ?field = function List xs -> xs | _ -> mismatch ?field "to_list" "list"
let get k conv v = conv ?field:(Some k) (field k v)

let require_version ~what version j =
  let v = get "version" to_int j in
  if v <> version then
    invalid_arg
      (Printf.sprintf "%s version %d is not supported (this build reads version %d)" what v
         version)
