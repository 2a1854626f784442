(** Loading and saving tables as directories of XML files, plus workload-file
    reading. *)

type load_report = {
  loaded : int;
  failed : (string * string) list;  (** filename, error message *)
}

(** Load every [*.xml] file of a directory (lexicographic order) into the
    store; malformed files are reported in [failed].
    @raise Invalid_argument when the directory does not exist. *)
val load_directory : Doc_store.t -> string -> load_report

(** Write every document as [NNNNNN.xml]; creates the directory. *)
val save_directory : Doc_store.t -> string -> unit

(** [workload_lines path f] reads a workload file in one streaming pass:
    ['#'] comments and blank lines are skipped, every other line is
    ["freq|statement"] or just a statement (frequency 1.0).  [f line freq
    text] is applied to each statement line in file order, [line] being its
    1-based line number in the file and [text] the statement, trimmed but
    otherwise verbatim; the results come back in file order.  An exception
    from [f] stops the read, so the first bad line is the one reported.
    @raise Invalid_argument naming the file and line when a frequency
    prefix is negative, NaN or infinite.
    @raise Sys_error when the file cannot be read. *)
val workload_lines : string -> (int -> float -> string -> 'a) -> 'a list
