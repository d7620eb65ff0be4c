(** Structured parse failure shared by every text-format loader.

    A truncated, corrupt or poisoned input file is a reportable
    condition, not a crash: loaders validate at the boundary (including
    non-finite numeric fields) and return this record instead of
    raising. Format-specific IO modules re-export the record
    ([type error = Util.Parse_error.t = {...}]) so callers can match on
    the fields without an extra open while the type stays shared across
    formats. *)

type t = {
  file : string;  (** path, or a ["<format>"] label when parsed from a string *)
  line : int;  (** 1-based line of the offending record; 0 = whole file *)
  msg : string;
}

val to_string : t -> string
(** [file:line: msg], omitting the line when it is 0. *)

val read_file : string -> (string, t) result
(** The whole file at the path, or an error with [line = 0] when it
    cannot be read (missing, a directory, no permission). The message
    names the path once, in [file]. *)
