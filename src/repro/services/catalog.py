"""The curated service catalog: every service of Figs. 5-7 and Table 1.

This is the reproduction of the hand-maintained domain list the paper's
team curated for five years (Section 2.2; the public list is referenced in
footnote 3).  Table 1's examples appear verbatim, including the regexp for
Facebook statics served from Akamai.

Service name constants are exported so analytics and figures never spell
the strings twice.
"""

from __future__ import annotations

from typing import Tuple

from repro.services.rules import Rule, RuleSet, exact, regexp, suffix

GOOGLE = "Google"
BING = "Bing"
DUCKDUCKGO = "DuckDuckGo"
FACEBOOK = "Facebook"
INSTAGRAM = "Instagram"
TWITTER = "Twitter"
LINKEDIN = "LinkedIn"
YOUTUBE = "YouTube"
NETFLIX = "Netflix"
ADULT = "Adult"
SPOTIFY = "Spotify"
SKYPE = "Skype"
WHATSAPP = "WhatsApp"
TELEGRAM = "Telegram"
SNAPCHAT = "SnapChat"
AMAZON = "Amazon"
EBAY = "Ebay"
PEER_TO_PEER = "Peer-To-Peer"
OTHER = "Other"

#: The service rows of Fig. 5, in the paper's display order.
FIGURE5_SERVICES: Tuple[str, ...] = (
    GOOGLE,
    BING,
    DUCKDUCKGO,
    FACEBOOK,
    INSTAGRAM,
    TWITTER,
    LINKEDIN,
    YOUTUBE,
    NETFLIX,
    ADULT,
    SPOTIFY,
    SKYPE,
    WHATSAPP,
    TELEGRAM,
    SNAPCHAT,
    AMAZON,
    EBAY,
    PEER_TO_PEER,
)

#: Table 1 of the paper, verbatim.
TABLE1_RULES: Tuple[Rule, ...] = (
    suffix("facebook.com", FACEBOOK),
    suffix("fbcdn.com", FACEBOOK),
    regexp(r"^fbstatic-[a-z]\.akamaihd\.net$", FACEBOOK),
    suffix("netflix.com", NETFLIX),
    suffix("nflxvideo.net", NETFLIX),
)

_RULES: Tuple[Rule, ...] = TABLE1_RULES + (
    # Facebook's wider estate.
    suffix("fbcdn.net", FACEBOOK),
    suffix("messenger.com", FACEBOOK),
    regexp(r"^fbcdn-[a-z-]+\.akamaihd\.net$", FACEBOOK),
    # Instagram: own domains, CDN domain, and the Akamai-era hostnames.
    suffix("instagram.com", INSTAGRAM),
    suffix("cdninstagram.com", INSTAGRAM),
    regexp(r"^instagram[a-z0-9.-]*\.akamaihd\.net$", INSTAGRAM),
    # Google search (not the video estate).
    suffix("google.com", GOOGLE),
    suffix("google.it", GOOGLE),
    suffix("gstatic.com", GOOGLE),
    # YouTube's three domain generations (Fig. 11i).
    suffix("youtube.com", YOUTUBE),
    suffix("googlevideo.com", YOUTUBE),
    suffix("gvt1.com", YOUTUBE),
    suffix("ytimg.com", YOUTUBE),
    # Others of Fig. 5.
    suffix("bing.com", BING),
    suffix("duckduckgo.com", DUCKDUCKGO),
    suffix("twitter.com", TWITTER),
    suffix("twimg.com", TWITTER),
    suffix("linkedin.com", LINKEDIN),
    suffix("licdn.com", LINKEDIN),
    suffix("nflximg.net", NETFLIX),
    suffix("spotify.com", SPOTIFY),
    suffix("scdn.co", SPOTIFY),
    suffix("skype.com", SKYPE),
    suffix("skypeassets.com", SKYPE),
    suffix("whatsapp.com", WHATSAPP),
    suffix("whatsapp.net", WHATSAPP),
    suffix("telegram.org", TELEGRAM),
    suffix("t.me", TELEGRAM),
    suffix("snapchat.com", SNAPCHAT),
    suffix("sc-cdn.net", SNAPCHAT),
    suffix("amazon.com", AMAZON),
    suffix("amazon.it", AMAZON),
    suffix("ssl-images-amazon.com", AMAZON),
    suffix("ebay.com", EBAY),
    suffix("ebay.it", EBAY),
    suffix("ebaystatic.com", EBAY),
    exact("pornhub.com", ADULT),
    exact("xvideos.com", ADULT),
    exact("xhamster.com", ADULT),
    suffix("phncdn.com", ADULT),
    suffix("xvideos-cdn.com", ADULT),
)


def default_ruleset() -> RuleSet:
    """The full curated rule set (fresh instance; callers may extend it)."""
    return RuleSet(_RULES)
