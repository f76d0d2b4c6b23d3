//! The wire TPC-C driver: the five transactions as prepared SQL with `?`
//! parameters, in the Base form and the two post-flip forms this
//! benchmark flips to. It mirrors `bullfrog_tpcc::txns` (same tables
//! touched, same order, customer first so lazy migration happens before
//! the hot district lock is held); steps the dialect has no syntax for
//! (`ORDER BY`, `CASE`) are done client-side.

use bullfrog_common::{Row, Value};
use bullfrog_tpcc::{Scenario, TpccRng, TpccScale, TxnKind, Variant};

use crate::conn::{affected_of, rows_of, Conn, StmtError, StmtResult};
use crate::record::ClientLog;

/// What a statement costs the server, for the latency model in the
/// traced report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `BEGIN` / `COMMIT` / `ROLLBACK`, sent as `QUERY`.
    Control,
    /// `SELECT` by full primary key.
    SelPk,
    /// `SELECT` through a secondary index, a key prefix or a join.
    SelIdx,
    Update,
    Insert,
    Delete,
}

macro_rules! statements {
    ($($id:ident, $class:ident, $sql:expr;)*) => {
        /// Every statement the driver sends. The discriminant is the
        /// prepared-statement id and the span's statement kind.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Stmt { $($id,)* }
        impl Stmt {
            pub const ALL: &'static [Stmt] = &[$(Stmt::$id,)*];
            pub fn sql(self) -> &'static str { match self { $(Stmt::$id => $sql,)* } }
            pub fn class(self) -> Class { match self { $(Stmt::$id => Class::$class,)* } }
        }
    };
}

statements! {
    Begin, Control, "BEGIN";
    Commit, Control, "COMMIT";
    Rollback, Control, "ROLLBACK";
    // --- Base schema ---
    WTax, SelPk, "SELECT w_tax FROM warehouse WHERE w_id = ?";
    CInfo, SelPk, "SELECT c_discount, c_credit FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    DBump, Update, "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?";
    DNext, SelPk, "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = ? AND d_id = ?";
    OIns, Insert, "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    NoIns, Insert, "INSERT INTO neworder VALUES (?, ?, ?)";
    IGet, SelPk, "SELECT i_price FROM item WHERE i_id = ?";
    SGet, SelPk, "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?";
    SUpd, Update, "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?";
    OlIns, Insert, "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    CByLast, SelIdx, "SELECT c_id, c_first FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_last = ?";
    CPay, Update, "UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    WPay, Update, "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?";
    DPay, Update, "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?";
    HIns, Insert, "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    CBal, SelPk, "SELECT c_balance FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    OLast, SelIdx, "SELECT MAX(o_id) FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ?";
    OlCount, SelIdx, "SELECT COUNT(*) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    NoMin, SelIdx, "SELECT MIN(no_o_id) FROM neworder WHERE no_w_id = ? AND no_d_id = ?";
    NoDel, Delete, "DELETE FROM neworder WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?";
    OCust, SelPk, "SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?";
    OCarrier, Update, "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?";
    OlDeliv, Update, "UPDATE order_line SET ol_delivery_d = ? WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    OlSum, SelIdx, "SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    CDeliv, Update, "UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    SlJoin, SelIdx, "SELECT COUNT(DISTINCT s.s_i_id) FROM order_line ol, stock s WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? AND ol.ol_o_id >= ? AND ol.ol_o_id < ? AND s.s_i_id = ol.ol_i_id AND s.s_w_id = ? AND s.s_quantity < ?";
    // --- after the customer split: names in customer_pub, money in customer_priv ---
    CInfoSplit, SelPk, "SELECT c_discount, c_credit FROM customer_priv WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    CByLastSplit, SelIdx, "SELECT c_id, c_first FROM customer_pub WHERE c_w_id = ? AND c_d_id = ? AND c_last = ?";
    CPaySplit, Update, "UPDATE customer_priv SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    CBalSplit, SelPk, "SELECT c_balance FROM customer_priv WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    CDelivSplit, Update, "UPDATE customer_priv SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    // --- after the join denormalization: orderline_stock replaces order_line and stock ---
    OlsProbe, SelIdx, "SELECT s_quantity, s_ytd, s_order_cnt FROM orderline_stock WHERE ol_i_id = ? AND s_w_id = ?";
    OlsIns, Insert, "INSERT INTO orderline_stock VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    OlsLines, SelIdx, "SELECT ol_number, ol_amount FROM orderline_stock WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    OlsDeliv, Update, "UPDATE orderline_stock SET ol_delivery_d = ? WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    OlsLow, SelIdx, "SELECT COUNT(DISTINCT ol_i_id) FROM orderline_stock WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ? AND s_w_id = ? AND s_quantity < ?";
}

/// Prepares every parameterized statement on `conn` under its id.
pub fn prepare_all(conn: &mut Conn) -> StmtResult<()> {
    for &s in Stmt::ALL {
        if s.class() != Class::Control {
            conn.prepare(s as u64, s.sql())?;
        }
    }
    Ok(())
}

pub const KINDS: [TxnKind; 5] = [
    TxnKind::NewOrder,
    TxnKind::Payment,
    TxnKind::OrderStatus,
    TxnKind::Delivery,
    TxnKind::StockLevel,
];

pub fn kind_index(kind: TxnKind) -> u8 {
    KINDS.iter().position(|k| *k == kind).expect("five kinds") as u8
}

#[derive(Debug, Clone)]
pub enum Customer {
    Id(i64),
    LastName(String),
}

#[derive(Debug, Clone)]
pub struct Line {
    /// 0 is the spec's unused item: the transaction rolls back there.
    pub i_id: i64,
    pub supply_w: i64,
    pub quantity: i64,
}

/// One transaction's inputs; a retry re-runs the same inputs.
#[derive(Debug, Clone)]
pub enum Params {
    NewOrder {
        w: i64,
        d: i64,
        c: i64,
        lines: Vec<Line>,
        now: i64,
    },
    Payment {
        w: i64,
        d: i64,
        c_w: i64,
        c_d: i64,
        customer: Customer,
        amount: i64,
        now: i64,
    },
    OrderStatus {
        w: i64,
        d: i64,
        customer: Customer,
    },
    Delivery {
        w: i64,
        carrier: i64,
        now: i64,
    },
    StockLevel {
        w: i64,
        d: i64,
        threshold: i64,
    },
}

/// What a finished attempt did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Done {
    /// `orderline_stock` rows this transaction inserted (join flip only),
    /// for the exact cardinality check after the run.
    pub denorm_rows: u64,
}

pub struct Tpcc {
    pub scale: TpccScale,
    /// The evolution this run flips to, if any.
    pub scenario: Option<Scenario>,
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn first_i64(rows: &[Row], col: usize) -> Option<i64> {
    rows.first().and_then(|r| r[col].as_i64())
}

fn missing(what: &str) -> StmtError {
    StmtError::Server {
        retryable: false,
        message: format!("{what} not found"),
    }
}

struct Wire<'a> {
    conn: &'a mut Conn,
    log: &'a mut ClientLog,
}

impl Wire<'_> {
    fn control(&mut self, s: Stmt) -> StmtResult<()> {
        let conn = &mut *self.conn;
        self.log.stmt(s as u8, || conn.query(s.sql())).map(|_| ())
    }

    fn select(&mut self, s: Stmt, params: Vec<Value>) -> StmtResult<Vec<Row>> {
        let conn = &mut *self.conn;
        rows_of(self.log.stmt(s as u8, || conn.execute(s as u64, params))?)
    }

    fn write(&mut self, s: Stmt, params: Vec<Value>) -> StmtResult<u64> {
        let conn = &mut *self.conn;
        affected_of(self.log.stmt(s as u8, || conn.execute(s as u64, params))?)
    }

    /// A write that must hit exactly one row.
    fn write_one(&mut self, s: Stmt, params: Vec<Value>) -> StmtResult<()> {
        match self.write(s, params)? {
            1 => Ok(()),
            n => Err(StmtError::Server {
                retryable: false,
                message: format!("{s:?} touched {n} rows, expected 1"),
            }),
        }
    }
}

impl Tpcc {
    /// The transaction form to use once the flip has (or has not) happened.
    pub fn variant(&self, flipped: bool) -> Variant {
        match (flipped, self.scenario) {
            (true, Some(Scenario::CustomerSplit)) => Variant::CustomerSplit,
            (true, Some(Scenario::JoinDenorm)) => Variant::JoinDenorm,
            _ => Variant::Base,
        }
    }

    fn customer(&self, rng: &mut TpccRng) -> Customer {
        if rng.chance(60) {
            let bound = (self.scale.customers_per_district / 3 - 1).max(0);
            Customer::LastName(TpccRng::last_name_for(rng.nurand(255, 0, bound.min(999))))
        } else {
            Customer::Id(rng.customer_id(self.scale.customers_per_district))
        }
    }

    fn other_warehouse(&self, rng: &mut TpccRng, w: i64) -> i64 {
        let other = rng.uniform(1, self.scale.warehouses);
        if other == w {
            other % self.scale.warehouses + 1
        } else {
            other
        }
    }

    /// Draws one transaction's inputs per clauses 2.4 to 2.8, as
    /// `bullfrog_tpcc::Driver` does in-process.
    pub fn params(&self, rng: &mut TpccRng, kind: TxnKind, now: i64) -> Params {
        let sc = &self.scale;
        let w = rng.uniform(1, sc.warehouses);
        let d = rng.uniform(1, sc.districts_per_warehouse);
        match kind {
            TxnKind::NewOrder => {
                let n = rng.uniform(5, 15);
                let rollback = rng.chance(1);
                let lines = (0..n)
                    .map(|i| Line {
                        i_id: if rollback && i == n - 1 {
                            0
                        } else {
                            rng.item_id(sc.items)
                        },
                        supply_w: if sc.warehouses > 1 && rng.chance(1) {
                            self.other_warehouse(rng, w)
                        } else {
                            w
                        },
                        quantity: rng.uniform(1, 10),
                    })
                    .collect();
                Params::NewOrder {
                    w,
                    d,
                    c: rng.customer_id(sc.customers_per_district),
                    lines,
                    now,
                }
            }
            TxnKind::Payment => {
                let (c_w, c_d) = if sc.warehouses > 1 && rng.chance(15) {
                    (
                        self.other_warehouse(rng, w),
                        rng.uniform(1, sc.districts_per_warehouse),
                    )
                } else {
                    (w, d)
                };
                Params::Payment {
                    w,
                    d,
                    c_w,
                    c_d,
                    customer: self.customer(rng),
                    amount: rng.uniform(100, 500_000),
                    now,
                }
            }
            TxnKind::OrderStatus => Params::OrderStatus {
                w,
                d,
                customer: self.customer(rng),
            },
            TxnKind::Delivery => Params::Delivery {
                w,
                carrier: rng.uniform(1, 10),
                now,
            },
            TxnKind::StockLevel => Params::StockLevel {
                w,
                d,
                threshold: rng.uniform(10, 20),
            },
        }
    }

    /// Runs one attempt: `BEGIN`, the body, `COMMIT`. On `Err` the
    /// server has already aborted the transaction.
    pub fn run(
        &self,
        conn: &mut Conn,
        log: &mut ClientLog,
        variant: Variant,
        p: &Params,
    ) -> StmtResult<Done> {
        let mut x = Wire { conn, log };
        x.control(Stmt::Begin)?;
        let mut done = Done::default();
        let commit = match p {
            Params::NewOrder {
                w,
                d,
                c,
                lines,
                now,
            } => new_order(&mut x, variant, *w, *d, *c, lines, *now, &mut done)?,
            Params::Payment {
                w,
                d,
                c_w,
                c_d,
                customer,
                amount,
                now,
            } => {
                payment(
                    &mut x,
                    variant,
                    (*w, *d),
                    (*c_w, *c_d),
                    customer,
                    *amount,
                    *now,
                )?;
                true
            }
            Params::OrderStatus { w, d, customer } => {
                order_status(&mut x, variant, *w, *d, customer)?;
                true
            }
            Params::Delivery { w, carrier, now } => {
                let districts = self.scale.districts_per_warehouse;
                delivery(&mut x, variant, *w, districts, *carrier, *now)?;
                true
            }
            Params::StockLevel { w, d, threshold } => {
                stock_level(&mut x, variant, *w, *d, *threshold)?;
                true
            }
        };
        if commit {
            x.control(Stmt::Commit)?;
        } else {
            x.control(Stmt::Rollback)?;
            done = Done::default();
        }
        Ok(done)
    }
}

/// Resolves a customer selector to an id: by last name it is the
/// ceil(n/2)-th match ordered by first name (clause 2.5.2.2), picked
/// client-side because the dialect has no `ORDER BY`.
fn customer_id(x: &mut Wire, variant: Variant, w: i64, d: i64, c: &Customer) -> StmtResult<i64> {
    let name = match c {
        Customer::Id(id) => return Ok(*id),
        Customer::LastName(name) => name,
    };
    let by_last = if variant == Variant::CustomerSplit {
        Stmt::CByLastSplit
    } else {
        Stmt::CByLast
    };
    let mut rows = x.select(by_last, vec![int(w), int(d), Value::text(name.as_str())])?;
    if rows.is_empty() {
        return Err(missing("customer by last name"));
    }
    rows.sort_by(|a, b| a[1].cmp(&b[1]));
    rows[rows.len().div_ceil(2) - 1][0]
        .as_i64()
        .ok_or_else(|| missing("customer id"))
}

/// Returns whether to commit: the unused item (id 0) rolls back after
/// the work done so far, as the spec's 1 % case does.
#[allow(clippy::too_many_arguments)]
fn new_order(
    x: &mut Wire,
    variant: Variant,
    w: i64,
    d: i64,
    c: i64,
    lines: &[Line],
    now: i64,
    done: &mut Done,
) -> StmtResult<bool> {
    x.select(Stmt::WTax, vec![int(w)])?;
    let c_info = if variant == Variant::CustomerSplit {
        Stmt::CInfoSplit
    } else {
        Stmt::CInfo
    };
    if x.select(c_info, vec![int(w), int(d), int(c)])?.is_empty() {
        return Err(missing("customer"));
    }
    // Bump first, then read: the update's X lock is taken outright, so
    // two clients on one district queue instead of both holding S and
    // deadlocking on the upgrade.
    x.write_one(Stmt::DBump, vec![int(w), int(d)])?;
    let o_id = first_i64(&x.select(Stmt::DNext, vec![int(w), int(d)])?, 0)
        .ok_or_else(|| missing("district"))?
        - 1;
    let all_local = lines.iter().all(|l| l.supply_w == w) as i64;
    x.write(
        Stmt::OIns,
        vec![
            int(w),
            int(d),
            int(o_id),
            int(c),
            Value::Timestamp(now),
            Value::Null,
            int(lines.len() as i64),
            int(all_local),
        ],
    )?;
    x.write(Stmt::NoIns, vec![int(w), int(d), int(o_id)])?;

    for (n, line) in lines.iter().enumerate() {
        if line.i_id == 0 {
            return Ok(false);
        }
        let price = first_i64(&x.select(Stmt::IGet, vec![int(line.i_id)])?, 0)
            .ok_or_else(|| missing("item"))?;
        let amount = price * line.quantity;
        let restock = |qty: i64| {
            if qty - line.quantity >= 10 {
                qty - line.quantity
            } else {
                qty - line.quantity + 91
            }
        };
        if variant == Variant::JoinDenorm {
            // The item's newest embedded stock copy; reading it is what
            // pulls the item's join group through lazy migration.
            let copies = x.select(Stmt::OlsProbe, vec![int(line.i_id), int(line.supply_w)])?;
            let (qty, ytd, cnt) = copies
                .iter()
                .map(|r| {
                    (
                        r[0].as_i64().unwrap_or(50),
                        r[1].as_i64().unwrap_or(0),
                        r[2].as_i64().unwrap_or(0),
                    )
                })
                .max_by_key(|t| t.2)
                .unwrap_or((50, 0, 0));
            x.write(
                Stmt::OlsIns,
                vec![
                    int(w),
                    int(d),
                    int(o_id),
                    int(n as i64 + 1),
                    int(line.i_id),
                    Value::Null,
                    int(line.quantity),
                    Value::Decimal(amount),
                    int(line.supply_w),
                    int(restock(qty)),
                    Value::Decimal(ytd + line.quantity),
                    int(cnt + 1),
                ],
            )?;
            done.denorm_rows += 1;
        } else {
            let qty = first_i64(
                &x.select(Stmt::SGet, vec![int(line.supply_w), int(line.i_id)])?,
                0,
            )
            .ok_or_else(|| missing("stock"))?;
            x.write_one(
                Stmt::SUpd,
                vec![
                    int(restock(qty)),
                    int(line.quantity),
                    int(line.supply_w),
                    int(line.i_id),
                ],
            )?;
            x.write(
                Stmt::OlIns,
                vec![
                    int(w),
                    int(d),
                    int(o_id),
                    int(n as i64 + 1),
                    int(line.i_id),
                    int(line.supply_w),
                    Value::Null,
                    int(line.quantity),
                    Value::Decimal(amount),
                    Value::text("dist-info"),
                ],
            )?;
        }
    }
    Ok(true)
}

fn payment(
    x: &mut Wire,
    variant: Variant,
    (w, d): (i64, i64),
    (c_w, c_d): (i64, i64),
    customer: &Customer,
    amount: i64,
    now: i64,
) -> StmtResult<()> {
    let c = customer_id(x, variant, c_w, c_d, customer)?;
    let pay = if variant == Variant::CustomerSplit {
        Stmt::CPaySplit
    } else {
        Stmt::CPay
    };
    x.write_one(
        pay,
        vec![int(amount), int(amount), int(c_w), int(c_d), int(c)],
    )?;
    x.write_one(Stmt::WPay, vec![int(amount), int(w)])?;
    x.write_one(Stmt::DPay, vec![int(amount), int(w), int(d)])?;
    x.write(
        Stmt::HIns,
        vec![
            int(c),
            int(c_d),
            int(c_w),
            int(d),
            int(w),
            Value::Timestamp(now),
            Value::Decimal(amount),
            Value::text("payment"),
        ],
    )?;
    Ok(())
}

/// The order's line numbers and amounts from `orderline_stock`, which
/// holds one row per (line, stock warehouse): each line counted once.
fn denorm_lines(x: &mut Wire, w: i64, d: i64, o: i64) -> StmtResult<Vec<(i64, i64)>> {
    let mut lines: Vec<(i64, i64)> = x
        .select(Stmt::OlsLines, vec![int(w), int(d), int(o)])?
        .iter()
        .map(|r| (r[0].as_i64().unwrap_or(0), r[1].as_i64().unwrap_or(0)))
        .collect();
    lines.sort_unstable();
    lines.dedup_by_key(|l| l.0);
    Ok(lines)
}

fn order_status(x: &mut Wire, variant: Variant, w: i64, d: i64, c: &Customer) -> StmtResult<()> {
    let c = customer_id(x, variant, w, d, c)?;
    let bal = if variant == Variant::CustomerSplit {
        Stmt::CBalSplit
    } else {
        Stmt::CBal
    };
    if x.select(bal, vec![int(w), int(d), int(c)])?.is_empty() {
        return Err(missing("customer"));
    }
    let Some(o) = first_i64(&x.select(Stmt::OLast, vec![int(w), int(d), int(c)])?, 0) else {
        return Ok(()); // the customer never ordered
    };
    let lines = if variant == Variant::JoinDenorm {
        denorm_lines(x, w, d, o)?.len() as i64
    } else {
        first_i64(&x.select(Stmt::OlCount, vec![int(w), int(d), int(o)])?, 0).unwrap_or(0)
    };
    if lines == 0 {
        return Err(missing("order lines of the last order"));
    }
    Ok(())
}

fn delivery(
    x: &mut Wire,
    variant: Variant,
    w: i64,
    districts: i64,
    carrier: i64,
    now: i64,
) -> StmtResult<()> {
    for d in 1..=districts {
        let Some(o) = first_i64(&x.select(Stmt::NoMin, vec![int(w), int(d)])?, 0) else {
            continue; // this district is fully delivered
        };
        x.write_one(Stmt::NoDel, vec![int(w), int(d), int(o)])?;
        let c = first_i64(&x.select(Stmt::OCust, vec![int(w), int(d), int(o)])?, 0)
            .ok_or_else(|| missing("order"))?;
        x.write_one(Stmt::OCarrier, vec![int(carrier), int(w), int(d), int(o)])?;
        let key = || vec![int(w), int(d), int(o)];
        let stamp = || {
            let mut p = vec![Value::Timestamp(now)];
            p.extend(key());
            p
        };
        let total = if variant == Variant::JoinDenorm {
            let total = denorm_lines(x, w, d, o)?.iter().map(|l| l.1).sum();
            x.write(Stmt::OlsDeliv, stamp())?;
            total
        } else {
            let total = first_i64(&x.select(Stmt::OlSum, key())?, 0).unwrap_or(0);
            x.write(Stmt::OlDeliv, stamp())?;
            total
        };
        let credit = if variant == Variant::CustomerSplit {
            Stmt::CDelivSplit
        } else {
            Stmt::CDeliv
        };
        x.write_one(credit, vec![Value::Decimal(total), int(w), int(d), int(c)])?;
    }
    Ok(())
}

fn stock_level(x: &mut Wire, variant: Variant, w: i64, d: i64, threshold: i64) -> StmtResult<()> {
    let next = first_i64(&x.select(Stmt::DNext, vec![int(w), int(d)])?, 0)
        .ok_or_else(|| missing("district"))?;
    let low = if variant == Variant::JoinDenorm {
        Stmt::OlsLow
    } else {
        Stmt::SlJoin
    };
    x.select(
        low,
        vec![
            int(w),
            int(d),
            int((next - 20).max(1)),
            int(next),
            int(w),
            int(threshold),
        ],
    )?;
    Ok(())
}
