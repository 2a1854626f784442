(** Suppression of findings: the checked-in allow file, the
    [\[@lint.allow "ID"\]] attribute, and [(* lint: reason *)] notes. *)

type entry = {
  id : string;           (** check ID, e.g. "D001" *)
  path : string;         (** path matched by component suffix *)
  line : int option;     (** exact line, or any line of the file *)
  reason : string;       (** mandatory justification *)
}

(** Parse allow-file contents; [file] is used in error messages.  Every
    entry must carry a reason after [--] and name a check ID in [known];
    each violation is a located ["file:line: ..."] error. *)
val parse_allow_file :
  known:string list -> file:string -> string -> (entry list, string list) result

(** Read and parse an allow file from disk.  A missing or unreadable path
    (a directory, say) is an [Error] naming it. *)
val load_allow_file : known:string list -> string -> (entry list, string list) result

(** Does this entry suppress this finding? *)
val suppresses : entry -> Finding.t -> bool

(** [apply entries findings] is [(kept, suppressed)]. *)
val apply : entry list -> Finding.t list -> Finding.t list * Finding.t list

(** The attribute name recognized for in-source suppression. *)
val attribute_name : string

(** Check IDs allowed by [\[@lint.allow "..."\]] attributes in [attrs]. *)
val allow_ids : Parsetree.attributes -> string list

(** Lines of [source] carrying a [(* lint: ... *)] note. *)
val lint_note_lines : string -> (int, unit) Hashtbl.t

(** A note on [line] or the line directly above it. *)
val has_lint_note : (int, unit) Hashtbl.t -> line:int -> bool
