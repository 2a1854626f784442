(* XML serialization. *)

let escape_text s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_attrs buf attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr v);
      Buffer.add_char buf '"')
    attrs

let rec add_compact buf = function
  | Types.Text s -> Buffer.add_string buf (escape_text s)
  | Types.Element e ->
      Buffer.add_char buf '<';
      Buffer.add_string buf e.tag;
      add_attrs buf e.attrs;
      if e.children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter (add_compact buf) e.children;
        Buffer.add_string buf "</";
        Buffer.add_string buf e.tag;
        Buffer.add_char buf '>'
      end

let to_string doc =
  let buf = Buffer.create 256 in
  add_compact buf doc;
  Buffer.contents buf
