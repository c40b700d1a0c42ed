(* Source locations for IR statements. [uid] is unique across a finalised
   program; [path] is the index path through nested blocks, giving a stable
   printable coordinate like "serialize_node:2.1.0". Localisation quality of
   a failure report is measured with [distance]. *)

type t = { func : string; path : int list; uid : int }

let dummy = { func = "?"; path = []; uid = -1 }

let make ~func ~path ~uid = { func; path; uid }

let func t = t.func
let path t = t.path
let uid t = t.uid

let pp ppf t =
  Fmt.pf ppf "%s:%s" t.func
    (String.concat "." (List.map string_of_int t.path))

let to_string t = Fmt.str "%a" pp t
