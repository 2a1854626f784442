(** Loading and saving tables as directories of XML files, plus workload-file
    reading.  Every input error is a located {!Xia_xml.Scan.error} naming
    the file. *)

type load_report = {
  loaded : int;
  failed : Xia_xml.Scan.error list;  (** one per malformed or unreadable file *)
}

(** Load every [*.xml] file of a directory (lexicographic order) into the
    store; malformed files are skipped and reported in [failed].  [Error]
    when the directory cannot be read. *)
val load_directory : Doc_store.t -> string -> (load_report, Xia_xml.Scan.error) result

(** Write every document as [NNNNNN.xml]; creates the directory. *)
val save_directory : Doc_store.t -> string -> unit

(** [workload_lines path ~parse f] reads a workload file in one streaming
    pass: ['#'] comments and blank lines are skipped, every other line is
    ["freq|statement"] or just a statement (frequency 1.0).  [f freq v] is
    applied to each statement line in file order, [v] being [parse text]
    for the line's statement [text], trimmed but otherwise verbatim; the
    results come back in file order.  [parse] runs once per distinct
    statement text, so lines with the same text share one [v].
    The first bad line stops the read: a frequency prefix that is negative,
    NaN or infinite, or a [Scan.Fail (k, _)] from [parse], reported at the
    file line and column of the k-th character of [text].  [Error] also
    when the file cannot be read. *)
val workload_lines :
  string ->
  parse:(string -> 'b) ->
  (float -> 'b -> 'a) ->
  ('a list, Xia_xml.Scan.error) result
