module J = Dr_obs.Journal

type json = J.json

let ( let* ) r f = Result.bind r f

(* ---- encoding ------------------------------------------------------------ *)

let hex_of_float f = Printf.sprintf "%Lx" (Int64.bits_of_float f)
let float_of_hex s = Int64.float_of_bits (Int64.of_string ("0x" ^ s))

let add_ints b xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    xs;
  Buffer.add_char b ']'

let seal prefix = Printf.sprintf "%s,\"crc\":%d}" prefix (Crc32.string prefix)

(* ---- decoding ------------------------------------------------------------ *)

let field key j =
  match J.mem key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let int_field key j =
  let* v = field key j in
  match v with
  | J.Num f -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "field %S: expected integer" key)

let str_field key j =
  let* v = field key j in
  match v with
  | J.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected string" key)

let hex_float_field key j =
  let* s = str_field key j in
  match float_of_hex s with
  | f -> Ok f
  | exception _ -> Error (Printf.sprintf "field %S: bad float bits" key)

let arr_field key j =
  let* v = field key j in
  match v with
  | J.Arr xs -> Ok xs
  | _ -> Error (Printf.sprintf "field %S: expected array" key)

let int_list key = function
  | J.Arr xs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | J.Num f :: tl -> go (int_of_float f :: acc) tl
        | _ -> Error (Printf.sprintf "field %S: expected integers" key)
      in
      go [] xs
  | _ -> Error (Printf.sprintf "field %S: expected array" key)

let int_list_field key j =
  let* v = field key j in
  int_list key v

let rec map_result f = function
  | [] -> Ok []
  | x :: tl ->
      let* y = f x in
      let* ys = map_result f tl in
      Ok (y :: ys)

let crc_marker = ",\"crc\":"

let unseal line =
  (* The CRC is the last field written, so search from the end. *)
  let mlen = String.length crc_marker in
  let rec scan i =
    if i < 0 then None
    else if String.length line - i >= mlen && String.sub line i mlen = crc_marker
    then Some (String.sub line 0 i)
    else scan (i - 1)
  in
  match scan (String.length line - mlen) with
  | None -> Error "no crc field"
  | Some prefix ->
      let* j = J.json_of_string line in
      let* crc = int_field "crc" j in
      if Crc32.string prefix <> crc then Error "crc mismatch" else Ok j
