//! The derive shim against the shapes and attributes `crates/` uses: the
//! JSON it writes is serde's default representation, and it reads back
//! what it writes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(transparent)]
struct Id(u128);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
struct Limits {
    fuel: Option<u64>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    memory: Option<u64>,
}

fn three() -> u32 {
    3
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Dispatch {
    id: Id,
    payload: Vec<u8>,
    name: String,
    #[serde(default)]
    limits: Limits,
    #[serde(default = "three")]
    retries: u32,
    pair: (String, i64),
    ratio: f64,
    tags: HashMap<String, bool>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Message {
    Ack,
    #[serde(rename = "fxscript")]
    Renamed,
    Tasks(Vec<Dispatch>),
    Pair(u8, String),
    Heartbeat {
        seq: u64,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        gossip: Option<String>,
    },
}

fn dispatch() -> Dispatch {
    Dispatch {
        id: Id(u128::MAX - 5),
        payload: vec![0, 7, 255],
        name: "echo \"x\"\n".into(),
        limits: Limits { fuel: Some(9), memory: None },
        retries: 1,
        pair: ("k".into(), -4),
        ratio: 0.5,
        tags: HashMap::from([("warm".to_string(), true)]),
    }
}

#[test]
fn structs_write_serdes_default_shape() {
    let text = serde_json::to_string(&dispatch()).unwrap();
    assert_eq!(
        text,
        "{\"id\":340282366920938463463374607431768211450,\"payload\":[0,7,255],\
         \"name\":\"echo \\\"x\\\"\\n\",\"limits\":{\"fuel\":9},\"retries\":1,\
         \"pair\":[\"k\",-4],\"ratio\":0.5,\"tags\":{\"warm\":true}}"
    );
}

#[test]
fn enums_are_externally_tagged() {
    let json = |m: &Message| serde_json::to_string(m).unwrap();
    assert_eq!(json(&Message::Ack), "\"Ack\"");
    assert_eq!(json(&Message::Renamed), "\"fxscript\"");
    assert_eq!(json(&Message::Pair(1, "a".into())), "{\"Pair\":[1,\"a\"]}");
    assert_eq!(json(&Message::Heartbeat { seq: 2, gossip: None }), "{\"Heartbeat\":{\"seq\":2}}");
    assert!(json(&Message::Tasks(vec![dispatch()])).starts_with("{\"Tasks\":[{\"id\":"));
}

#[test]
fn everything_reads_back_what_it_wrote() {
    for message in [
        Message::Ack,
        Message::Renamed,
        Message::Tasks(vec![dispatch(), dispatch()]),
        Message::Pair(200, "z".into()),
        Message::Heartbeat { seq: u64::MAX, gossip: Some("g".into()) },
    ] {
        let bytes = serde_json::to_vec(&message).unwrap();
        assert_eq!(serde_json::from_slice::<Message>(&bytes).unwrap(), message);
    }
}

#[test]
fn values_carry_everything_but_integers_beyond_64_bits() {
    let small = Message::Tasks(vec![Dispatch { id: Id(7), ..dispatch() }]);
    let value = serde_json::to_value(&small).unwrap();
    assert_eq!(value["Tasks"][0]["payload"][2], 255);
    assert_eq!(serde_json::from_value::<Message>(value).unwrap(), small);
    // As with serde_json's own `Value`, a 128-bit id only survives as text.
    let wide = serde_json::to_value(Id(u128::MAX)).unwrap();
    assert!(wide.as_u64().is_none() && wide.as_f64().is_some());
}

#[test]
fn missing_fields_take_defaults_and_unknown_fields_are_skipped() {
    let d: Dispatch = serde_json::from_str(
        r#"{"future": {"x": [1, 2]}, "id": 1, "payload": [], "name": "n",
            "pair": ["a", 1], "ratio": 2, "tags": {}}"#,
    )
    .unwrap();
    assert_eq!(d.limits, Limits::default());
    assert_eq!(d.retries, 3);
    assert_eq!(d.ratio, 2.0);
    let err = serde_json::from_str::<Dispatch>(r#"{"id": 1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `payload`"), "{err}");
}

#[test]
fn wrong_shapes_are_errors() {
    assert!(serde_json::from_str::<Message>("\"Nope\"").is_err());
    assert!(serde_json::from_str::<Message>("{\"Pair\":[1]}").is_err());
    assert!(serde_json::from_str::<Message>("{\"Pair\":[1,\"a\",2]}").is_err());
    assert!(serde_json::from_str::<Message>("{\"Ack\":null,\"Ack\":null}").is_err());
    assert!(serde_json::from_str::<Dispatch>("[]").is_err());
    assert!(serde_json::from_str::<Vec<u8>>("[256]").is_err());
    assert!(serde_json::from_str::<Vec<u8>>("[1.5]").is_err());
    assert!(serde_json::from_str::<Id>("-1").is_err());
}
