(** The CRC-sealed JSON line shared by the WAL ({!Wal}) and checkpoint
    ({!Checkpoint}) formats: one JSON object per line whose last field,
    ["crc"], is the CRC-32 ({!Crc32}) of every byte before it.  Floats are
    stored as their exact IEEE-754 bits in hex, so a round-trip is
    bit-exact. *)

type json = Dr_obs.Journal.json

(** {1 Encoding} *)

val hex_of_float : float -> string

val add_ints : Buffer.t -> int list -> unit
(** Append [[1,2,3]]. *)

val seal : string -> string
(** [seal prefix] closes an object whose fields [prefix] holds (no closing
    brace) with its ["crc"] field: [prefix ^ ",\"crc\":N}"]. *)

(** {1 Decoding} *)

val unseal : string -> (json, string) result
(** Parse a sealed line and check its CRC.  A line with no ["crc"] field,
    a torn or bit-flipped line and malformed JSON are all errors. *)

val field : string -> json -> (json, string) result
val int_field : string -> json -> (int, string) result
val str_field : string -> json -> (string, string) result

val hex_float_field : string -> json -> (float, string) result
(** A float written with {!hex_of_float}. *)

val arr_field : string -> json -> (json list, string) result

val int_list : string -> json -> (int list, string) result
(** An integer array value; the string names the field in errors. *)

val int_list_field : string -> json -> (int list, string) result

val map_result : ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [List.map] that stops at the first error. *)
