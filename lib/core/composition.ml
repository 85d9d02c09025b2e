type component = {
  label : string;
  bcet : int;
  wcet : int;
}

let component ~label ~bcet ~wcet =
  if bcet <= 0 || wcet < bcet then
    invalid_arg "Composition.component: need 0 < bcet <= wcet";
  { label; bcet; wcet }

let pr_of_component c = Prelude.Ratio.make c.bcet c.wcet

let sequential_pr = function
  | [] -> invalid_arg "Composition.sequential_pr: empty composition"
  | components ->
    let bcet = Prelude.Listx.sum (List.map (fun c -> c.bcet) components) in
    let wcet = Prelude.Listx.sum (List.map (fun c -> c.wcet) components) in
    Prelude.Ratio.make bcet wcet

let weakest_component = function
  | [] -> invalid_arg "Composition.weakest_component: empty composition"
  | first :: rest ->
    List.fold_left
      (fun acc c -> Prelude.Ratio.min acc (pr_of_component c))
      (pr_of_component first) rest

let of_workload ~states (w : Isa.Workload.t) =
  let program, _ = Isa.Workload.program w in
  let matrix =
    Quantify.evaluate ~states ~inputs:w.Isa.Workload.inputs
      ~time:(Pipeline.Inorder.time program) ()
  in
  { label = w.Isa.Workload.name;
    bcet = Quantify.bcet matrix;
    wcet = Quantify.wcet matrix }

let parallel_pr = function
  | [] -> invalid_arg "Composition.parallel_pr: empty composition"
  | components ->
    let max_of f =
      List.fold_left (fun acc c -> Stdlib.max acc (f c)) 0 components
    in
    Prelude.Ratio.make (max_of (fun c -> c.bcet)) (max_of (fun c -> c.wcet))
