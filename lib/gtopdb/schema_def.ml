module S = Dc_relational.Schema
module V = Dc_relational.Value

let family =
  S.make "Family" ~key:[ "FID" ]
    [ S.attr ~ty:V.TInt "FID"; S.attr ~ty:V.TStr "FName"; S.attr ~ty:V.TStr "Desc" ]

let committee =
  S.make "Committee" ~key:[ "FID"; "PName" ]
    [ S.attr ~ty:V.TInt "FID"; S.attr ~ty:V.TStr "PName" ]

let family_intro =
  S.make "FamilyIntro" ~key:[ "FID" ]
    [ S.attr ~ty:V.TInt "FID"; S.attr ~ty:V.TStr "Text" ]

let target =
  S.make "Target" ~key:[ "TID" ]
    [
      S.attr ~ty:V.TInt "TID";
      S.attr ~ty:V.TStr "TName";
      S.attr ~ty:V.TStr "TType";
    ]

let target_family =
  S.make "TargetFamily" ~key:[ "TID"; "FID" ]
    [ S.attr ~ty:V.TInt "TID"; S.attr ~ty:V.TInt "FID" ]

let contributor =
  S.make "Contributor" ~key:[ "CID" ]
    [
      S.attr ~ty:V.TInt "CID";
      S.attr ~ty:V.TStr "CName";
      S.attr ~ty:V.TStr "Affiliation";
    ]

let reference =
  S.make "Reference" ~key:[ "RID" ]
    [
      S.attr ~ty:V.TInt "RID";
      S.attr ~ty:V.TInt "FID";
      S.attr ~ty:V.TStr "Title";
      S.attr ~ty:V.TInt "Year";
    ]

let all_schemas =
  [ family; committee; family_intro; target; target_family; contributor; reference ]

let empty_database () =
  List.fold_left Dc_relational.Database.create_relation
    Dc_relational.Database.empty all_schemas
