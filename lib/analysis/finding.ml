(* A single analyzer finding: a stable check ID anchored at a source
   location, plus a human-readable message.  Findings are value types so the
   whole pipeline (collect, suppress, sort, render) stays pure. *)

type t = {
  file : string;
  line : int;
  col : int;
  id : string;
  message : string;
}

let make ~file ~line ~col ~id ~message = { file; line; col; id; message }

let of_location ~id ~message (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    id;
    message;
  }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.id b.id in
        if c <> 0 then c else String.compare a.message b.message

(* The text format is part of the tool's contract: file:line [ID] message. *)
let to_string f = Printf.sprintf "%s:%d [%s] %s" f.file f.line f.id f.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"id\":\"%s\",\"message\":\"%s\"}"
    (json_escape f.file) f.line f.col (json_escape f.id) (json_escape f.message)
