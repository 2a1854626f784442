(** Analyzer driver: parse with compiler-libs once, build the cross-unit
    call graph ({!Callgraph}) and its site table ({!Sites}) once, run the
    checks ({!Checks}) over the sites. *)

type error = { path : string; message : string }

type report = {
  findings : Finding.t list;   (** findings, sorted *)
  errors : error list;         (** unreadable / unparsable inputs *)
  warnings : error list;
      (** directories linted without their [dune] file, whose library's
          calls the call graph cannot resolve to them; not in the JSON
          report *)
}

val empty_report : report

(** Lint one source string as a one-unit program (every parsetree-level
    check; no H001). *)
val lint_source : filename:string -> string -> (Finding.t list, error) result

(** Lint every [.ml] under [paths] (recursively; skips [_build] and dot
    directories) as one program sharing one call graph, including the H001
    interface check.  A directory of units without a [dune] file is a
    warning. *)
val lint_paths : string list -> report

(** Schema version of {!report_to_json}'s envelope. *)
val json_schema_version : int

(** The versioned machine-readable report: schema version, check catalog,
    findings sorted by (file, line, col, id), walk/parse errors.
    Byte-stable for identical inputs (fixture-locked in test/). *)
val report_to_json : report -> string
