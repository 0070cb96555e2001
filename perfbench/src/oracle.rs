//! The result oracle: the expected answer to every benchmark query,
//! computed straight from the generated rows without the engine, and the
//! comparison of an engine result against it (row order ignored, floats
//! within a tolerance).

use lakehouse_columnar::{RecordBatch, Value};
use std::collections::{HashMap, HashSet};

/// 2019-04-01 in days since the epoch: the `trips` node of the taxi
/// pipeline keeps pickups on or after it.
const APRIL_FIRST: i32 = 17_987;

/// One cell of a result row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    Null,
    Int(i64),
    Float(f64),
}

impl Cell {
    /// The taxi data has no text or boolean columns, so a result holding
    /// one is wrong.
    fn from_value(v: &Value) -> Result<Cell, String> {
        match v {
            Value::Null => Ok(Cell::Null),
            Value::Int64(x) | Value::Timestamp(x) => Ok(Cell::Int(*x)),
            Value::Date(d) => Ok(Cell::Int(i64::from(*d))),
            Value::Float64(x) => Ok(Cell::Float(*x)),
            Value::Bool(_) | Value::Utf8(_) => Err(format!("unexpected value {v:?}")),
        }
    }

    fn opt(v: Option<i64>) -> Cell {
        v.map_or(Cell::Null, Cell::Int)
    }

    /// Total order used to line up rows before comparing them.
    fn key(&self) -> (u8, f64) {
        match *self {
            Cell::Null => (0, 0.0),
            Cell::Int(x) => (1, x as f64),
            Cell::Float(x) => (1, x),
        }
    }

    fn matches(&self, other: &Cell) -> bool {
        match (*self, *other) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            (Cell::Int(a), Cell::Float(b)) | (Cell::Float(b), Cell::Int(a)) => close(a as f64, b),
            (Cell::Float(a), Cell::Float(b)) => close(a, b),
            _ => false,
        }
    }

    /// Exact bits, for membership tests of rows passed through unchanged.
    fn bits(&self) -> u64 {
        match *self {
            Cell::Null => u64::MAX,
            Cell::Int(x) => x as u64,
            Cell::Float(x) => x.to_bits(),
        }
    }
}

/// Sums and averages are accumulated in a different order by the engine.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

pub type Row = Vec<Cell>;

fn cmp_rows(a: &Row, b: &Row) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let (kx, ky) = (x.key(), y.key());
        let o = kx.0.cmp(&ky.0).then(kx.1.total_cmp(&ky.1));
        if o != std::cmp::Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

/// Rows of an engine result.
pub fn rows_of(batch: &RecordBatch) -> Result<Vec<Row>, String> {
    let mut rows = vec![Vec::with_capacity(batch.num_columns()); batch.num_rows()];
    for c in 0..batch.num_columns() {
        let col = batch.column(c);
        for (r, row) in rows.iter_mut().enumerate() {
            let v = col.get(r).map_err(|e| e.to_string())?;
            row.push(Cell::from_value(&v)?);
        }
    }
    Ok(rows)
}

/// Check that `batch` holds exactly the rows `want`, in any order.
pub fn check_rows(want: &[Row], batch: &RecordBatch) -> Result<(), String> {
    let mut got = rows_of(batch)?;
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    let mut want = want.to_vec();
    got.sort_by(cmp_rows);
    want.sort_by(cmp_rows);
    for (g, w) in got.iter().zip(&want) {
        if g.len() != w.len() || !g.iter().zip(w).all(|(a, b)| a.matches(b)) {
            return Err(format!("row {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

/// What a query must return.
#[derive(Debug, Clone)]
pub enum Expected {
    /// Exactly these rows, in any order.
    Rows(Vec<Row>),
    /// `n` rows, each a whole row of the source table.
    AnyRows { n: usize },
    /// The top rows by `column` descending: the sort column must equal
    /// these values in this order, and each row must be one of the
    /// candidates (source rows at or above the last value, projected).
    Top {
        values: Vec<f64>,
        column: usize,
        candidates: Vec<Vec<u64>>,
    },
}

/// The generated rows, column by column, as the oracle reads them.
pub struct Trips {
    pub pickup: Vec<i64>,
    pub dropoff: Vec<i64>,
    pub passengers: Vec<Option<i64>>,
    pub day: Vec<i32>,
    pub distance: Vec<f64>,
    pub fare: Vec<f64>,
    /// Every source row by exact bits (all six columns).
    index: HashSet<Vec<u64>>,
}

impl Trips {
    pub fn from_batch(batch: &RecordBatch) -> Trips {
        let col = |name: &str| {
            batch
                .column_by_name(name)
                .unwrap_or_else(|_| panic!("generated batch has column {name}"))
        };
        let i64s = |name: &str| col(name).as_i64().expect("int64 column").0.to_vec();
        let f64s = |name: &str| col(name).as_f64().expect("float64 column").0.to_vec();
        let passengers = {
            let c = col("passenger_count");
            (0..c.len())
                .map(|i| match c.get(i).expect("row in range") {
                    Value::Int64(x) => Some(x),
                    _ => None,
                })
                .collect()
        };
        let mut t = Trips {
            pickup: i64s("pickup_location_id"),
            dropoff: i64s("dropoff_location_id"),
            passengers,
            day: col("pickup_at").as_date().expect("date column").0.to_vec(),
            distance: f64s("trip_distance"),
            fare: f64s("fare"),
            index: HashSet::new(),
        };
        t.index = (0..t.len())
            .map(|i| t.row(i).iter().map(Cell::bits).collect())
            .collect();
        t
    }

    pub fn len(&self) -> usize {
        self.pickup.len()
    }

    /// Row `i` in schema order.
    fn row(&self, i: usize) -> Row {
        vec![
            Cell::Int(self.pickup[i]),
            Cell::Int(self.dropoff[i]),
            Cell::opt(self.passengers[i]),
            Cell::Int(i64::from(self.day[i])),
            Cell::Float(self.distance[i]),
            Cell::Float(self.fare[i]),
        ]
    }

    /// The `pickups` table the taxi pipeline materializes: April trips
    /// counted per (pickup, dropoff).
    pub fn pickups(&self) -> HashMap<(i64, i64), i64> {
        let mut out = HashMap::new();
        for i in 0..self.len() {
            if self.day[i] >= APRIL_FIRST {
                *out.entry((self.pickup[i], self.dropoff[i])).or_insert(0) += 1;
            }
        }
        out
    }

    /// Rows of the `trips` artifact.
    pub fn april_rows(&self) -> usize {
        self.day.iter().filter(|&&d| d >= APRIL_FIRST).count()
    }

    pub fn count(&self) -> Expected {
        Expected::Rows(vec![vec![Cell::Int(self.len() as i64)]])
    }

    /// `SELECT pickup_location_id, dropoff_location_id, fare ... WHERE
    /// trip_distance > min`.
    pub fn long_trips(&self, min: f64) -> Expected {
        Expected::Rows(
            (0..self.len())
                .filter(|&i| self.distance[i] > min)
                .map(|i| {
                    vec![
                        Cell::Int(self.pickup[i]),
                        Cell::Int(self.dropoff[i]),
                        Cell::Float(self.fare[i]),
                    ]
                })
                .collect(),
        )
    }

    /// `SELECT key, COUNT(*), AVG(value) ... WHERE filter GROUP BY key`.
    fn group_avg(
        &self,
        key: impl Fn(usize) -> Cell,
        value: &[f64],
        keep: impl Fn(usize) -> bool,
    ) -> Expected {
        let mut groups: HashMap<u64, (Cell, i64, f64)> = HashMap::new();
        for i in (0..self.len()).filter(|&i| keep(i)) {
            let k = key(i);
            let g = groups.entry(k.bits()).or_insert((k, 0, 0.0));
            g.1 += 1;
            g.2 += value[i];
        }
        Expected::Rows(
            groups
                .into_values()
                .map(|(k, n, sum)| vec![k, Cell::Int(n), Cell::Float(sum / n as f64)])
                .collect(),
        )
    }

    /// `SELECT passenger_count, COUNT(*), AVG(fare) ... WHERE trip_distance >
    /// min GROUP BY passenger_count`.
    pub fn fare_by_passengers(&self, min_distance: f64) -> Expected {
        self.group_avg(
            |i| Cell::opt(self.passengers[i]),
            &self.fare,
            |i| self.distance[i] > min_distance,
        )
    }

    /// `SELECT dropoff_location_id, COUNT(*), AVG(trip_distance) ... WHERE
    /// fare > min GROUP BY dropoff_location_id`.
    pub fn distance_by_dropoff(&self, min_fare: f64) -> Expected {
        self.group_avg(
            |i| Cell::Int(self.dropoff[i]),
            &self.distance,
            |i| self.fare[i] > min_fare,
        )
    }

    /// `SELECT pickup_location_id, passenger_count, COUNT(*), SUM(fare) ...
    /// GROUP BY pickup_location_id, passenger_count`.
    pub fn fare_by_zone_and_passengers(&self) -> Expected {
        let mut groups: HashMap<(i64, Option<i64>), (i64, f64)> = HashMap::new();
        for i in 0..self.len() {
            let g = groups
                .entry((self.pickup[i], self.passengers[i]))
                .or_insert((0, 0.0));
            g.0 += 1;
            g.1 += self.fare[i];
        }
        Expected::Rows(
            groups
                .into_iter()
                .map(|((z, p), (n, s))| {
                    vec![Cell::Int(z), Cell::opt(p), Cell::Int(n), Cell::Float(s)]
                })
                .collect(),
        )
    }

    /// `SELECT COUNT(*), SUM(p.counts) FROM taxi_table t JOIN pickups p ON
    /// both zone ids WHERE t.fare > min`.
    pub fn join_pickups(&self, min_fare: f64) -> Expected {
        let pickups = self.pickups();
        let (mut n, mut total) = (0i64, 0i64);
        for i in (0..self.len()).filter(|&i| self.fare[i] > min_fare) {
            if let Some(c) = pickups.get(&(self.pickup[i], self.dropoff[i])) {
                n += 1;
                total += c;
            }
        }
        let total = if n == 0 { Cell::Null } else { Cell::Int(total) };
        Expected::Rows(vec![vec![Cell::Int(n), total]])
    }

    /// Top `k` fares, descending, with the row projected to `columns`
    /// (schema indices; fare is column 5).
    pub fn top_fares(&self, k: usize, columns: Vec<usize>) -> Expected {
        let mut fares = self.fare.clone();
        fares.sort_unstable_by(|a, b| b.total_cmp(a));
        fares.truncate(k);
        let column = columns
            .iter()
            .position(|&c| c == 5)
            .expect("projection includes fare");
        let last = fares.last().copied().unwrap_or(f64::INFINITY);
        let candidates = (0..self.len())
            .filter(|&i| self.fare[i] >= last)
            .map(|i| {
                let full = self.row(i);
                columns.iter().map(|&c| full[c].bits()).collect()
            })
            .collect();
        Expected::Top {
            values: fares,
            column,
            candidates,
        }
    }

    /// `n` whole rows of the table, any of them.
    pub fn any_rows(&self, n: usize) -> Expected {
        Expected::AnyRows { n }
    }

    /// Check an engine result; `Err` describes the first mismatch.
    pub fn check(&self, expected: &Expected, batch: &RecordBatch) -> Result<(), String> {
        let got = rows_of(batch)?;
        match expected {
            Expected::Rows(want) => check_rows(want, batch),
            Expected::AnyRows { n } => {
                if got.len() != *n {
                    return Err(format!("{} rows, expected {n}", got.len()));
                }
                let known = |r: &Row| {
                    self.index
                        .contains(&r.iter().map(Cell::bits).collect::<Vec<_>>())
                };
                match got.iter().find(|r| !known(r)) {
                    Some(r) => Err(format!("row {r:?} is not in the table")),
                    None => Ok(()),
                }
            }
            Expected::Top {
                values,
                column,
                candidates,
            } => {
                let fares: Vec<f64> = got
                    .iter()
                    .map(|r| match r.get(*column) {
                        Some(Cell::Float(x)) => *x,
                        _ => f64::NAN,
                    })
                    .collect();
                if fares.len() != values.len()
                    || fares
                        .iter()
                        .zip(values)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err(format!("top values {fares:?}, expected {values:?}"));
                }
                let known =
                    |r: &Row| candidates.contains(&r.iter().map(Cell::bits).collect::<Vec<_>>());
                match got.iter().find(|r| !known(r)) {
                    Some(r) => Err(format!("row {r:?} is not in the table")),
                    None => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lakehouse_workload::TaxiGenerator;

    #[test]
    fn oracle_accepts_its_own_answers_and_rejects_changed_ones() {
        let batch = TaxiGenerator::default().generate(500);
        let t = Trips::from_batch(&batch);
        let Expected::Rows(rows) = t.fare_by_passengers(2.0) else {
            unreachable!()
        };
        let n = rows.len();
        assert!(n > 1);
        let mut shuffled = rows.clone();
        shuffled.reverse();
        let as_batch = |rows: &[Row]| {
            use lakehouse_columnar::{Column, DataType, Field, Schema};
            let key = rows.iter().map(|r| match r[0] {
                Cell::Int(x) => Some(x),
                _ => None,
            });
            let int = |c: usize| {
                rows.iter()
                    .map(|r| if let Cell::Int(x) = r[c] { x } else { 0 })
                    .collect()
            };
            let float = |c: usize| {
                rows.iter()
                    .map(|r| if let Cell::Float(x) = r[c] { x } else { 0.0 })
                    .collect()
            };
            RecordBatch::try_new(
                Schema::new(vec![
                    Field::new("k", DataType::Int64, true),
                    Field::new("n", DataType::Int64, false),
                    Field::new("a", DataType::Float64, false),
                ]),
                vec![
                    Column::from_opt_i64(key.collect()),
                    Column::from_i64(int(1)),
                    Column::from_f64(float(2)),
                ],
            )
            .unwrap()
        };
        let expected = t.fare_by_passengers(2.0);
        assert!(t.check(&expected, &as_batch(&shuffled)).is_ok());
        shuffled[0][1] = Cell::Int(-1);
        assert!(t.check(&expected, &as_batch(&shuffled)).is_err());
        assert!(t.check(&expected, &as_batch(&shuffled[1..])).is_err());
    }
}
