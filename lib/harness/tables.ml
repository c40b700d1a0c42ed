(* Fixed-width ASCII table rendering for experiment output. *)

let render ~header rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols && String.length cell > widths.(i) then
          widths.(i) <- String.length cell)
      row
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (if i = 0 then "| " else " | ");
        Buffer.add_string buf (pad cell widths.(i)))
      row;
    Buffer.add_string buf " |\n"
  in
  let rule () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (if i = 0 then "+-" else "-+-");
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_string buf "-+\n"
  in
  rule ();
  line header;
  rule ();
  List.iter line rows;
  rule ();
  Buffer.contents buf

let latency_cell = function
  | None -> "-"
  | Some ns -> Wd_sim.Time.to_string ns

let bool_cell b = if b then "yes" else "no"

let mark_cell b = if b then "Y" else "."
