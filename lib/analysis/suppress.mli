(** Suppression of findings, in the source only: the
    [\[@lint.allow "ID"\]] attribute and [(* lint: reason *)] notes. *)

(** Check IDs allowed by [\[@lint.allow "..."\]] attributes in [attrs]. *)
val allow_ids : Parsetree.attributes -> string list

(** Lines of [source] carrying a [(* lint: ... *)] note. *)
val lint_note_lines : string -> (int, unit) Hashtbl.t

(** A note on [line] or the line directly above it. *)
val has_lint_note : (int, unit) Hashtbl.t -> line:int -> bool
