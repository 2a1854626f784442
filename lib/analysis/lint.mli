(** Analyzer driver: parse each unit with compiler-libs once, walk it once
    into its site table ({!Sites}), run the checks ({!Checks}) over the
    sites. *)

type error = { path : string; message : string }

type report = {
  findings : Finding.t list;   (** findings, sorted *)
  errors : error list;         (** unreadable / unparsable inputs *)
}

(** Lint one source string as one unit (every parsetree-level check; no
    H001). *)
val lint_source : filename:string -> string -> (Finding.t list, error) result

(** Lint every [.ml] under [paths] (recursively; skips [_build] and dot
    directories) unit by unit, plus the H001 interface check. *)
val lint_paths : string list -> report

(** The versioned machine-readable report: schema version, check catalog,
    findings sorted by (file, line, col, id), walk/parse errors.
    Byte-stable for identical inputs (fixture-locked in test/). *)
val report_to_json : report -> string
