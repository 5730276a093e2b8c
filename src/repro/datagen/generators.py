"""Seeded row generators, one per domain.

Each generator produces row dicts matching the domain's schema.  Free-text
titles and descriptions embed the structured attribute values plus filler
words, which is what makes keyword probing and IR retrieval behave the way
the paper describes (result pages are distinguishable, search boxes respond
to content words, fortuitous keyword matches are possible).
"""

from __future__ import annotations

from typing import Callable

from repro.datagen import vocab
from repro.datagen.domains import domain
from repro.util.rng import SeededRng

Row = dict[str, object]
Generator = Callable[[int, SeededRng], Row]


def _pick_city(rng: SeededRng) -> tuple[str, str, str]:
    """(city, state, zipcode) drawn from the shared geography vocabulary."""
    city, state, _prefix = rng.choice(vocab.CITIES)
    zipcode = vocab.zipcode_for(city, rng.randint(0, 99))
    return city, state, zipcode


def _sentence(rng: SeededRng, *fragments: str, filler: int = 4) -> str:
    """Join fragments with a few filler words for realistic page text."""
    words = [fragment for fragment in fragments if fragment]
    words.extend(rng.sample(vocab.FILLER_WORDS, filler))
    return " ".join(str(word) for word in words)


def _iso_date(rng: SeededRng, start_year: int = 2005, end_year: int = 2008) -> str:
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return f"{year:04d}-{month:02d}-{day:02d}"


def _person_name(rng: SeededRng) -> str:
    return f"{rng.choice(vocab.FIRST_NAMES)} {rng.choice(vocab.LAST_NAMES)}"


def _title_phrase(rng: SeededRng) -> str:
    return f"The {rng.choice(vocab.TITLE_ADJECTIVES)} {rng.choice(vocab.TITLE_NOUNS)}"


# ---------------------------------------------------------------------------
# Per-domain generators
# ---------------------------------------------------------------------------


def _used_car(row_id: int, rng: SeededRng) -> Row:
    make = rng.choice(vocab.CAR_MAKES)
    model = rng.choice(vocab.CAR_MAKES_MODELS[make])
    year = rng.randint(1995, 2008)
    city, state, zipcode = _pick_city(rng)
    price = rng.randint(15, 350) * 100
    mileage = rng.randint(5, 180) * 1000
    color = rng.choice(vocab.CAR_COLORS)
    body = rng.choice(vocab.CAR_BODY_STYLES)
    title = f"{year} {make} {model} {body}"
    description = _sentence(
        rng, color, make, model, f"{mileage} miles", f"located in {city}", state
    )
    return {
        "id": row_id,
        "title": title,
        "make": make,
        "model": model,
        "year": year,
        "price": price,
        "mileage": mileage,
        "color": color,
        "body_style": body,
        "city": city,
        "state": state,
        "zipcode": zipcode,
        "description": description,
    }


def _property(row_id: int, rng: SeededRng) -> Row:
    ptype = rng.choice(vocab.PROPERTY_TYPES)
    bedrooms = rng.randint(1, 6)
    bathrooms = rng.randint(1, 4)
    city, state, zipcode = _pick_city(rng)
    price = rng.randint(80, 1200) * 1000
    sqft = rng.randint(5, 45) * 100
    street = f"{rng.randint(10, 9999)} {rng.choice(vocab.STREET_NAMES)} {rng.choice(vocab.STREET_SUFFIXES)}"
    title = f"{bedrooms} bedroom {ptype} on {street}"
    description = _sentence(
        rng, ptype, f"{bedrooms} bed", f"{bathrooms} bath", f"{sqft} sqft", city, state
    )
    return {
        "id": row_id,
        "title": title,
        "property_type": ptype,
        "bedrooms": bedrooms,
        "bathrooms": bathrooms,
        "price": price,
        "sqft": sqft,
        "city": city,
        "state": state,
        "zipcode": zipcode,
        "description": description,
    }


def _rental(row_id: int, rng: SeededRng) -> Row:
    bedrooms = rng.randint(0, 4)
    city, state, zipcode = _pick_city(rng)
    rent = rng.randint(5, 45) * 100
    sqft = rng.randint(3, 20) * 100
    pets = rng.choice(["yes", "no"])
    amenity = rng.choice(vocab.APARTMENT_AMENITIES)
    label = "studio" if bedrooms == 0 else f"{bedrooms} bedroom apartment"
    title = f"{label} in {city}"
    description = _sentence(rng, label, amenity, f"{sqft} sqft", city, state)
    return {
        "id": row_id,
        "title": title,
        "bedrooms": bedrooms,
        "rent": rent,
        "sqft": sqft,
        "pet_friendly": pets,
        "amenity": amenity,
        "city": city,
        "state": state,
        "zipcode": zipcode,
        "description": description,
    }


def _job(row_id: int, rng: SeededRng) -> Row:
    title = rng.choice(vocab.JOB_TITLES)
    category = rng.choice(vocab.JOB_CATEGORIES)
    company = f"{rng.choice(vocab.COMPANY_PREFIXES)} {rng.choice(vocab.COMPANY_SUFFIXES)}"
    city, state, _zipcode = _pick_city(rng)
    salary = rng.randint(28, 180) * 1000
    posted = _iso_date(rng, 2007, 2008)
    description = _sentence(rng, title, category, company, city, state, "full time")
    return {
        "id": row_id,
        "title": title,
        "company": company,
        "category": category,
        "city": city,
        "state": state,
        "salary": salary,
        "posted_date": posted,
        "description": description,
    }


def _recipe(row_id: int, rng: SeededRng) -> Row:
    cuisine = rng.choice(vocab.CUISINES)
    ingredient = rng.choice(vocab.INGREDIENTS)
    dish = rng.choice(vocab.DISH_FORMS)
    prep = rng.randint(2, 24) * 5
    calories = rng.randint(15, 120) * 10
    title = f"{cuisine} {ingredient} {dish}"
    description = _sentence(rng, cuisine, ingredient, dish, f"{prep} minutes", "recipe")
    return {
        "id": row_id,
        "title": title,
        "cuisine": cuisine,
        "main_ingredient": ingredient,
        "prep_minutes": prep,
        "calories": calories,
        "description": description,
    }


def _book(row_id: int, rng: SeededRng) -> Row:
    title = _title_phrase(rng)
    author = _person_name(rng)
    genre = rng.choice(vocab.BOOK_GENRES)
    year = rng.randint(1950, 2008)
    price = rng.randint(5, 60)
    isbn = f"978{rng.randint(1000000000, 9999999999)}"
    description = _sentence(rng, genre, "novel by", author, str(year))
    return {
        "id": row_id,
        "title": title,
        "author": author,
        "genre": genre,
        "year": year,
        "price": price,
        "isbn": isbn,
        "description": description,
    }


def _event(row_id: int, rng: SeededRng) -> Row:
    category = rng.choice(vocab.EVENT_CATEGORIES)
    city, state, _zipcode = _pick_city(rng)
    venue = f"{city} {rng.choice(vocab.VENUE_WORDS)}"
    date = _iso_date(rng, 2008, 2009)
    price = rng.randint(0, 250)
    title = f"{category} at {venue}"
    description = _sentence(rng, category, venue, city, state, date)
    return {
        "id": row_id,
        "title": title,
        "category": category,
        "venue": venue,
        "city": city,
        "state": state,
        "event_date": date,
        "price": price,
        "description": description,
    }


def _gov_document(row_id: int, rng: SeededRng) -> Row:
    agency = rng.choice(vocab.AGENCIES)
    topic = rng.choice(vocab.GOV_TOPICS)
    kind = rng.choice(vocab.GOV_DOCUMENT_KINDS)
    state = rng.choice(vocab.US_STATES)
    year = rng.randint(1998, 2008)
    title = f"{topic} {kind} {year}"
    description = _sentence(
        rng, agency, topic, kind, vocab.STATE_NAMES.get(state, state), str(year)
    )
    return {
        "id": row_id,
        "title": title,
        "agency": agency,
        "topic": topic,
        "kind": kind,
        "state": state,
        "year": year,
        "description": description,
    }


def _store(row_id: int, rng: SeededRng) -> Row:
    category = rng.choice(vocab.STORE_CATEGORIES)
    city, state, zipcode = _pick_city(rng)
    name = f"{rng.choice(vocab.STORE_NAME_WORDS)} {category.title()}"
    phone = f"{rng.randint(200, 989)}-555-{rng.randint(1000, 9999)}"
    description = _sentence(rng, name, category, city, state, zipcode)
    return {
        "id": row_id,
        "title": name,
        "category": category,
        "city": city,
        "state": state,
        "zipcode": zipcode,
        "phone": phone,
        "description": description,
    }


def _media_item(row_id: int, rng: SeededRng) -> Row:
    category = rng.choice(vocab.MEDIA_CATEGORIES)
    if category == "movies":
        genre = rng.choice(vocab.MOVIE_GENRES)
        title = _title_phrase(rng)
        creator = _person_name(rng)
    elif category == "music":
        genre = rng.choice(vocab.MUSIC_GENRES)
        title = f"{rng.choice(vocab.TITLE_ADJECTIVES)} {rng.choice(vocab.TITLE_NOUNS)}"
        creator = _person_name(rng)
    elif category == "software":
        genre = rng.choice(vocab.SOFTWARE_CATEGORIES)
        title = f"{rng.choice(vocab.COMPANY_PREFIXES)} {rng.choice(vocab.SOFTWARE_WORDS)}"
        creator = f"{rng.choice(vocab.COMPANY_PREFIXES)} {rng.choice(vocab.COMPANY_SUFFIXES)}"
    else:  # games
        genre = rng.choice(vocab.GAME_GENRES)
        title = f"{rng.choice(vocab.TITLE_ADJECTIVES)} {rng.choice(vocab.TITLE_NOUNS)} {rng.choice(['quest', 'saga', 'league', 'world'])}"
        creator = f"{rng.choice(vocab.COMPANY_PREFIXES)} Games"
    year = rng.randint(1990, 2008)
    price = rng.randint(5, 80)
    description = _sentence(rng, category, genre, "by", creator, str(year))
    return {
        "id": row_id,
        "title": title,
        "category": category,
        "genre": genre,
        "creator": creator,
        "year": year,
        "price": price,
        "description": description,
    }


_GENERATORS: dict[str, Generator] = {
    "used_cars": _used_car,
    "real_estate": _property,
    "apartments": _rental,
    "jobs": _job,
    "recipes": _recipe,
    "books": _book,
    "events": _event,
    "government": _gov_document,
    "store_locator": _store,
    "media_catalog": _media_item,
}


def generate_rows(domain_name: str, count: int, rng: SeededRng) -> list[Row]:
    """Generate ``count`` rows for a domain using the supplied RNG.

    Row ids are 1-based and contiguous, which the sites rely on for detail
    page URLs and the coverage experiments rely on for ground truth.
    """
    spec = domain(domain_name)
    try:
        generator = _GENERATORS[spec.name]
    except KeyError:
        raise KeyError(f"no generator registered for domain {spec.name!r}") from None
    return [generator(row_id, rng) for row_id in range(1, count + 1)]


def supported_domains() -> list[str]:
    """Domains that have a row generator (should match the registry)."""
    return sorted(_GENERATORS.keys())
