(** Analyzer driver: parse with compiler-libs once, build the cross-unit
    call graph once, run the unit-local and whole-program checks. *)

type error = { path : string; message : string }

type report = {
  findings : Finding.t list;   (** findings, sorted *)
  errors : error list;         (** unreadable / unparsable inputs *)
}

val empty_report : report

(** Lint one source string as a one-unit program (every parsetree-level
    check including D003, the R-series and the flow-sensitive L/X-series;
    no H001). *)
val lint_source : filename:string -> string -> (Finding.t list, error) result

(** Lint every [.ml] under [paths] (recursively; skips [_build] and dot
    directories) as one program sharing one call graph, including the H001
    interface check. *)
val lint_paths : string list -> report

(** Deterministic Graphviz rendering of the call graph over every [.ml]
    under [paths], plus any walk/parse errors (the graph covers the parsable
    subset). *)
val callgraph_dot : string list -> string * error list

(** Deterministic per-binding effect-summary dump ({!Effects.dump}) over
    every [.ml] under [paths], plus any walk/parse errors (the dump covers
    the parsable subset). *)
val effects_dump : string list -> string * error list

(** Just the flow-sensitive R002 and L/X-series ({!Dataflow.check}) over every
    [.ml] under [paths], plus any walk/parse errors (the bench harness's
    [lint.dataflow] exhibit). *)
val dataflow_findings : string list -> Finding.t list * error list

(** Schema version of {!report_to_json}'s envelope. *)
val json_schema_version : int

(** The versioned machine-readable report: schema version, check catalog,
    findings sorted by (file, line, col, id), walk/parse errors.  Byte-stable for identical inputs
    (fixture-locked in test/).  [only] restricts the emitted "checks"
    array to the given IDs (the --only/--skip filter); the caller filters
    the findings themselves. *)
val report_to_json : ?only:string list -> report -> string
