(* Visualise the glitch parameter plane: an ASCII heatmap of attack
   success over (width, offset), the search space the ChipWhisperer
   sweeps and the tuner hunts through.

     dune exec examples/attack_surface.exe *)

let () =
  Fmt.pr "Attack surface of while(!a) under single glitches at cycle 4@.";
  Fmt.pr "(the CMP), sampled every 2%% of width x offset:@.@.";
  let board =
    Hw.Board.create
      (Hw.Board.Asm (Hw.Attack.single_loop_program Hw.Attack.While_not_a))
  in
  (* sample the plane *)
  let hits = ref [] in
  let width = ref (-49) in
  while !width <= 49 do
    let row = Buffer.create 64 in
    let offset = ref (-49) in
    while !offset <= 49 do
      let obs =
        Hw.Glitcher.run ~max_cycles:250 board
          [ Hw.Glitcher.single ~width:!width ~offset:!offset ~ext_offset:4 ]
      in
      let escaped = Hw.Attack.escaped board obs in
      if escaped then hits := (!width, !offset) :: !hits;
      let e = Hw.Susceptibility.landscape ~width:!width ~offset:!offset in
      Buffer.add_char row
        (if escaped then '#'
         else if e > 1.0 then '+'
         else if e > 0.3 then 'o'
         else if e > 0.08 then '.'
         else ' ');
      offset := !offset + 2
    done;
    Fmt.pr "%4d |%s|@." !width (Buffer.contents row);
    width := !width + 2
  done;
  Fmt.pr "@.legend: '#' successful glitch, '+' near-deterministic core,@.";
  Fmt.pr "        'o' strong tail, '.' weak tail, ' ' dead zone@.";
  Fmt.pr "@.%d successful parameter points in this %d-point sample.@."
    (List.length !hits) (50 * 50);
  Fmt.pr
    "The sweet spots are tiny islands in a dead plane - this is why the@.";
  Fmt.pr
    "attacker's tuning phase (Section V-B) exists, and why randomized@.";
  Fmt.pr "delays that desynchronise the trigger are so disruptive.@."
