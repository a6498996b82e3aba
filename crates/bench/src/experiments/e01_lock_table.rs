//! E1 — regenerates **Table 1** of the paper: lock compatibility of the
//! RHODOS transaction service, measured on the real lock table (not the
//! predicate), including the conversion row.

use crate::table::Table;
use crate::{Cell, Report};
use rhodos_file_service::FileId;
use rhodos_txn::{DataItem, LockMode, LockOutcome, LockTable};

/// The claim, in a line.
pub const TITLE: &str = "Table 1: lock compatibility matrix";

fn outcome(held: Option<LockMode>, same_txn: bool, want: LockMode) -> &'static str {
    let mut table = LockTable::new(1_000_000, 3);
    let item = DataItem::Page(FileId(1), 0);
    let holder = 1u64;
    let requester = if same_txn { 1 } else { 2 };
    if let Some(h) = held {
        assert_eq!(table.set_lock(0, holder, item, h, 0), LockOutcome::Granted);
    }
    match table.set_lock(0, requester, item, want, 1) {
        LockOutcome::Granted => {
            if same_txn && held.is_some() && held != Some(want) {
                "ok (conversion)"
            } else {
                "ok"
            }
        }
        LockOutcome::Queued => "wait",
    }
}

/// Table 1 of the paper: what each lock to be set gets while another
/// transaction holds the row's lock.
const TABLE_ONE: [(&str, Option<LockMode>, [&str; 3]); 4] = [
    ("none", None, ["ok", "ok", "ok"]),
    ("read-only", Some(LockMode::ReadOnly), ["ok", "ok", "wait"]),
    ("Iread", Some(LockMode::Iread), ["wait", "wait", "wait"]),
    ("Iwrite", Some(LockMode::Iwrite), ["wait", "wait", "wait"]),
];

const MODES: [LockMode; 3] = [LockMode::ReadOnly, LockMode::Iread, LockMode::Iwrite];

/// Runs the experiment.
pub fn measure(_: Cell) -> Report {
    let mut r = Report::default();
    r.text
        .push_str("Lock set by ANOTHER transaction (rows) vs lock to be set (columns):\n");
    let mut t = Table::new(&["lock set", "read-only", "Iread", "Iwrite"]);
    for (label, held, paper) in TABLE_ONE {
        let got = MODES.map(|want| outcome(held, false, want));
        r.claim(
            format!(
                "with {label} set by another transaction, read-only/Iread/Iwrite get {} (Table 1)",
                paper.join("/")
            ),
            got == paper,
        );
        t.row(&[&label, &got[0], &got[1], &got[2]]);
    }
    r.text.push_str(&t.render());

    r.text
        .push_str("\nLock held by the SAME transaction (conversions):\n");
    let mut t = Table::new(&["lock held", "read-only", "Iread", "Iwrite"]);
    for (label, held, _) in &TABLE_ONE[1..] {
        let got = MODES.map(|want| outcome(*held, true, want));
        let granted = MODES.map(|want| {
            if Some(want) == *held {
                "ok"
            } else {
                "ok (conversion)"
            }
        });
        r.claim(
            format!("the holder of {label} is granted every lock, by conversion where it differs"),
            got == granted,
        );
        t.row(&[&label, &got[0], &got[1], &got[2]]);
    }
    r.text.push_str(&t.render());
    r.text.push_str(
        "\npaper: RO shares with RO and one IR; once an IR is set no new RO;\n\
         IW is exclusive and reachable by conversion ('locks can be converted\n\
         into another') — from the holder's IR, or from its sole RO (the\n\
         composition RO->IR->IW, granted in one step to avoid self-deadlock).\n",
    );
    r
}
